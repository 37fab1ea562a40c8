#include "net/http_server.h"

#include <memory>
#include <string>
#include <utility>

namespace juggler::net {

namespace {

HttpResponse OverloadResponse() {
  HttpResponse response = HttpResponse::Text(
      503, "server overloaded; retry with backoff\n");
  response.headers.emplace_back("Retry-After", "1");
  return response;
}

class HttpCodec final : public EventLoopServer::Codec {
 public:
  HttpCodec(const HttpParser::Limits& limits, HttpServer::Handler handler,
            HttpServer::FastHandler fast_handler,
            HttpServer::DeferHandler defer_handler)
      : limits_(limits),
        handler_(std::move(handler)),
        fast_handler_(std::move(fast_handler)),
        defer_handler_(std::move(defer_handler)) {}

  std::unique_ptr<EventLoopServer::Decoder> NewDecoder() const override {
    return std::make_unique<Decoder>(this);
  }

  size_t read_pause_bytes() const override {
    return limits_.max_header_bytes + limits_.max_body_bytes + 4096;
  }

 private:
  class Decoder final : public EventLoopServer::Decoder {
   public:
    explicit Decoder(const HttpCodec* codec)
        : codec_(codec), parser_(codec->limits_) {}

    void Append(const char* data, size_t size) override {
      parser_.Append(data, size);
    }
    size_t buffered_bytes() const override { return parser_.buffered_bytes(); }

    State Next() override {
      result_ = parser_.Next();
      switch (result_.state) {
        case HttpParser::State::kNeedMore:
          return State::kNeedMore;
        case HttpParser::State::kError:
          return State::kError;
        case HttpParser::State::kReady:
          break;
      }
      keep_alive_ = result_.request.KeepAlive();
      return State::kRequest;
    }

    bool keep_alive() const override { return keep_alive_; }

    Answer AnswerInline(const EventLoopServer::Deferred& deferred,
                        std::string* out) override {
      if (codec_->fast_handler_) {
        std::optional<HttpResponse> fast =
            codec_->fast_handler_(result_.request);
        if (fast) {
          AppendResponse(out, *fast, keep_alive_);
          return Answer::kInline;
        }
      }
      if (codec_->defer_handler_ &&
          codec_->defer_handler_(result_.request,
                                 HttpServer::Reply(deferred, keep_alive_))) {
        return Answer::kDeferred;
      }
      return Answer::kPool;
    }

    EventLoopServer::Job TakeJob() override {
      return [codec = codec_, keep_alive = keep_alive_,
              request = std::move(result_.request)] {
        return SerializeResponse(codec->handler_(request), keep_alive);
      };
    }

    void AppendOverload(std::string* out) const override {
      AppendResponse(out, OverloadResponse(), keep_alive_);
    }
    void AppendProtocolError(std::string* out) const override {
      AppendResponse(
          out,
          HttpResponse::Text(result_.error_status, result_.error_detail + "\n"),
          /*keep_alive=*/false);
    }
    void AppendSlowRead(std::string* out) const override {
      AppendResponse(out,
                     HttpResponse::Text(408, "request header read timeout\n"),
                     /*keep_alive=*/false);
    }

   private:
    const HttpCodec* const codec_;
    HttpParser parser_;
    HttpParser::Result result_;
    bool keep_alive_ = false;
  };

  const HttpParser::Limits limits_;
  const HttpServer::Handler handler_;
  const HttpServer::FastHandler fast_handler_;
  const HttpServer::DeferHandler defer_handler_;
};

}  // namespace

HttpServer::HttpServer(const Options& options, Handler handler,
                       FastHandler fast_handler, DeferHandler defer_handler,
                       LoopAgent* agent)
    : EventLoopServer(options,
                      std::make_unique<HttpCodec>(
                          options.limits, std::move(handler),
                          std::move(fast_handler), std::move(defer_handler)),
                      agent) {}

}  // namespace juggler::net
