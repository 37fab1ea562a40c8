#include "rpc/rpc_server.h"

#include <memory>
#include <string>
#include <utility>

#include "net/recommend_codec.h"

namespace juggler::rpc {

namespace {

/// Appends a kError frame carrying the HTTP API's error document, which the
/// router maps back to a Status.
void AppendError(uint64_t request_id, const Status& status, std::string* out) {
  AppendFrame(FrameType::kError, request_id, net::ErrorJson(status).Dump(),
              out);
}

class FrameCodec final : public net::EventLoopServer::Codec {
 public:
  FrameCodec(const FrameDecoder::Limits& limits, RpcServer::Handler handler,
             RpcServer::FastHandler fast_handler)
      : limits_(limits),
        handler_(std::move(handler)),
        fast_handler_(std::move(fast_handler)) {}

  std::unique_ptr<net::EventLoopServer::Decoder> NewDecoder() const override {
    return std::make_unique<Decoder>(this);
  }

  size_t read_pause_bytes() const override {
    return limits_.max_payload_bytes + 2 * kFrameHeaderBytes + 4096;
  }

 private:
  class Decoder final : public net::EventLoopServer::Decoder {
   public:
    explicit Decoder(const FrameCodec* codec)
        : codec_(codec), decoder_(codec->limits_) {}

    void Append(const char* data, size_t size) override {
      decoder_.Append(data, size);
    }
    size_t buffered_bytes() const override {
      return decoder_.buffered_bytes();
    }

    State Next() override {
      result_ = decoder_.Next();
      switch (result_.state) {
        case FrameDecoder::State::kNeedMore:
          return State::kNeedMore;
        case FrameDecoder::State::kError:
          return State::kError;
        case FrameDecoder::State::kReady:
          break;
      }
      request_id_ = result_.frame.request_id;
      return State::kRequest;
    }

    // Connections stay open across frames; only errors close them.
    bool keep_alive() const override { return true; }

    Answer AnswerInline(const net::EventLoopServer::Deferred& /*deferred*/,
                        std::string* out) override {
      if (result_.frame.type == FrameType::kPing) {
        AppendFrame(FrameType::kPong, request_id_, result_.frame.payload, out);
        return Answer::kInline;
      }
      if (!codec_->fast_handler_) return Answer::kPool;
      std::optional<RpcFrame> reply = codec_->fast_handler_(result_.frame);
      if (!reply) return Answer::kPool;
      reply->request_id = request_id_;
      AppendFrame(*reply, out);
      return Answer::kInline;
    }

    net::EventLoopServer::Job TakeJob() override {
      return [codec = codec_, request = std::move(result_.frame)] {
        RpcFrame response = codec->handler_(request);
        response.request_id = request.request_id;
        return EncodeFrame(response);
      };
    }

    void AppendOverload(std::string* out) const override {
      AppendError(request_id_,
                  Status::ResourceExhausted(
                      "rpc server overloaded; retry with backoff"),
                  out);
    }
    void AppendProtocolError(std::string* out) const override {
      AppendError(0, Status::InvalidArgument(result_.error_detail), out);
    }
    void AppendSlowRead(std::string* out) const override {
      AppendError(0, Status::Aborted("frame read timeout"), out);
    }

   private:
    const FrameCodec* const codec_;
    FrameDecoder decoder_;
    FrameDecoder::Result result_;
    uint64_t request_id_ = 0;  ///< Of the frame last decoded; 0 before any.
  };

  const FrameDecoder::Limits limits_;
  const RpcServer::Handler handler_;
  const RpcServer::FastHandler fast_handler_;
};

}  // namespace

RpcServer::RpcServer(const Options& options, Handler handler,
                     FastHandler fast_handler)
    : net::EventLoopServer(
          options,
          std::make_unique<FrameCodec>(options.limits, std::move(handler),
                                       std::move(fast_handler))) {}

}  // namespace juggler::rpc
