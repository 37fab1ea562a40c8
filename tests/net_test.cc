// Unit tests for the dependency-free pieces of src/net/: the JSON value
// type, the incremental HTTP/1.1 parser + response serializer, the poller
// backends, and the socket utilities.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/parse.h"
#include "net/http.h"
#include "net/json.h"
#include "net/poller.h"
#include "net/socket_util.h"

namespace juggler::net {
namespace {

// ---------------------------------------------------------------------------
// Json
// ---------------------------------------------------------------------------

TEST(JsonTest, ParsesScalarsObjectsAndArrays) {
  auto parsed = Json::Parse(
      R"({"app":"svm","n":40000,"ok":true,"none":null,)"
      R"("xs":[1,2.5,-3e2],"nested":{"k":"v"}})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json& j = *parsed;
  EXPECT_TRUE(j.is_object());
  EXPECT_EQ(j.StringOr("app", ""), "svm");
  EXPECT_EQ(j.NumberOr("n", 0), 40000);
  EXPECT_TRUE(j.Find("ok")->bool_value());
  EXPECT_TRUE(j.Find("none")->is_null());
  ASSERT_TRUE(j.Find("xs")->is_array());
  const auto& xs = j.Find("xs")->array_items();
  ASSERT_EQ(xs.size(), 3u);
  EXPECT_DOUBLE_EQ(xs[1].number_value(), 2.5);
  EXPECT_DOUBLE_EQ(xs[2].number_value(), -300.0);
  EXPECT_EQ(j.Find("nested")->StringOr("k", ""), "v");
}

TEST(JsonTest, DumpParseRoundTripsAndIntegersPrintWithoutFraction) {
  Json j = Json::Obj();
  j.Set("count", Json::Number(12000))
      .Set("ratio", Json::Number(0.3))
      .Set("name", Json::Str("a \"quoted\"\nline"))
      .Set("list", Json::Arr().Append(Json::Bool(false)).Append(Json::Null()));
  const std::string text = j.Dump();
  EXPECT_NE(text.find("\"count\":12000"), std::string::npos)
      << "integral double must not print a fraction: " << text;
  auto reparsed = Json::Parse(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->Dump(), text);
  EXPECT_EQ(reparsed->StringOr("name", ""), "a \"quoted\"\nline");
}

TEST(JsonTest, DecodesUnicodeEscapesIncludingSurrogatePairs) {
  auto parsed = Json::Parse(R"(["A", "é", "😀"])");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->array_items()[0].string_value(), "A");
  EXPECT_EQ(parsed->array_items()[1].string_value(), "\xc3\xa9");
  EXPECT_EQ(parsed->array_items()[2].string_value(), "\xf0\x9f\x98\x80");
  EXPECT_FALSE(Json::Parse(R"(["\ud83d"])").ok()) << "unpaired surrogate";
}

TEST(JsonTest, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",             "{",        "[1,]",       "{\"a\":}",
      "01",           "1.",       "1e",         "nul",
      "\"unterminated", "[1] extra", "\"\x01\"", "{\"a\" 1}",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(Json::Parse(text).ok()) << "should reject: " << text;
  }
}

TEST(JsonTest, RejectsExcessiveNesting) {
  std::string deep;
  for (int i = 0; i < 80; ++i) deep += "[";
  for (int i = 0; i < 80; ++i) deep += "]";
  auto parsed = Json::Parse(deep);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("nesting"), std::string::npos);
}

TEST(JsonTest, NestingDepthLimitIsExact) {
  // `depth` counts enclosing containers: exactly kMaxDepth nested arrays
  // (with a scalar innermost — scalars add no depth) must parse, and one
  // more must fail. Found while writing the fuzz round-trip oracle: the
  // old check accepted kMaxDepth + 1 containers.
  const auto nested = [](int n) {
    std::string text;
    for (int i = 0; i < n; ++i) text += "[";
    text += "0";
    for (int i = 0; i < n; ++i) text += "]";
    return text;
  };
  auto at_limit = Json::Parse(nested(Json::kMaxDepth));
  ASSERT_TRUE(at_limit.ok()) << at_limit.status().ToString();
  EXPECT_EQ(at_limit->Dump(), nested(Json::kMaxDepth));
  auto past_limit = Json::Parse(nested(Json::kMaxDepth + 1));
  ASSERT_FALSE(past_limit.ok());
  EXPECT_NE(past_limit.status().message().find("nesting"), std::string::npos);

  // Objects hit the same cap.
  std::string objects;
  for (int i = 0; i < Json::kMaxDepth + 1; ++i) objects += R"({"k":)";
  objects += "0";
  for (int i = 0; i < Json::kMaxDepth + 1; ++i) objects += "}";
  EXPECT_FALSE(Json::Parse(objects).ok());
}

TEST(JsonTest, NumberRangeEdges) {
  // Overflow is an error; underflow rounds toward zero (JavaScript
  // semantics), and both directions must be deterministic across compilers
  // — the fuzz oracle reparses every Dump().
  EXPECT_FALSE(Json::Parse("1e999").ok());
  EXPECT_FALSE(Json::Parse("-1e999").ok());
  auto tiny = Json::Parse("1e-999");
  ASSERT_TRUE(tiny.ok()) << tiny.status().ToString();
  EXPECT_DOUBLE_EQ(tiny->number_value(), 0.0);
}

TEST(JsonTest, NumbersConvertFromTheTextRangeCorrectlyRounded) {
  const auto number = [](const std::string& text) {
    auto parsed = Json::Parse(text);
    EXPECT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    return parsed.ok() ? parsed->number_value() : -1.0;
  };
  EXPECT_EQ(number("0.1"), 0.1);
  EXPECT_EQ(number("12000"), 12000.0);
  EXPECT_EQ(number("-3e2"), -300.0);
  EXPECT_EQ(number("1.7976931348623157e308"), 1.7976931348623157e308);
  EXPECT_EQ(number("4.9e-324"), 4.9e-324);  // Smallest subnormal.
  EXPECT_TRUE(std::signbit(number("-0")));
  // Rounds past DBL_MAX: overflow, not a silent infinity.
  EXPECT_FALSE(Json::Parse("1.7976931348623159e308").ok());
  // Numbers inside containers convert from their own byte range only.
  auto list = Json::Parse("[1.5,25,-0.125e1]");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->array_items()[0].number_value(), 1.5);
  EXPECT_EQ(list->array_items()[1].number_value(), 25.0);
  EXPECT_EQ(list->array_items()[2].number_value(), -1.25);
}

TEST(JsonTest, ParseFiniteDoubleReadsExactlyTheView) {
  // A view into a longer buffer: the bytes after it must not be read (the
  // parser hands over ranges of the request body, not NUL-terminated
  // copies).
  const std::string buffer = "12345e5";
  double value = 0.0;
  ASSERT_TRUE(ParseFiniteDouble(std::string_view(buffer).substr(0, 2), &value));
  EXPECT_EQ(value, 12.0);
  EXPECT_FALSE(ParseFiniteDouble(std::string_view("1\0" "2", 3), &value))
      << "an embedded NUL is a trailing byte, not a terminator";
  EXPECT_FALSE(ParseFiniteDouble("1e999", &value));
  ASSERT_TRUE(ParseFiniteDouble("-1e-999", &value));
  EXPECT_EQ(value, 0.0);
  // The range-error fallback must read the whole text, decimal point too.
  value = 1.0;
  ASSERT_TRUE(ParseFiniteDouble("1.5e-400", &value));
  EXPECT_EQ(value, 0.0);
  EXPECT_FALSE(ParseFiniteDouble("0x10", &value));
  EXPECT_FALSE(ParseFiniteDouble("+1", &value));
  EXPECT_FALSE(ParseFiniteDouble("inf", &value));
  EXPECT_FALSE(ParseFiniteDouble(" 1", &value));
  EXPECT_FALSE(ParseFiniteDouble("", &value));
}

TEST(JsonTest, DuplicateKeysFindReturnsFirst) {
  auto parsed = Json::Parse(R"({"k":1,"k":2})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->Find("k")->number_value(), 1.0);
}

TEST(JsonTest, AccessorsReturnDefaultsOnTypeMismatch) {
  const Json j = Json::Str("text");
  EXPECT_EQ(j.Find("missing"), nullptr);
  EXPECT_FALSE(j.bool_value());
  EXPECT_DOUBLE_EQ(j.number_value(), 0.0);
  EXPECT_TRUE(j.array_items().empty());
  EXPECT_TRUE(j.object_items().empty());
  EXPECT_DOUBLE_EQ(Json::Obj().NumberOr("k", 7.5), 7.5);
}

// ---------------------------------------------------------------------------
// HttpParser
// ---------------------------------------------------------------------------

HttpParser::Result Feed(HttpParser* parser, const std::string& bytes) {
  parser->Append(bytes.data(), bytes.size());
  return parser->Next();
}

TEST(HttpParserTest, ParsesCompleteRequestWithBody) {
  HttpParser parser{HttpParser::Limits{}};
  const auto result = Feed(&parser,
                           "POST /v1/recommend?trace=1 HTTP/1.1\r\n"
                           "Host: localhost\r\n"
                           "Content-Length: 4\r\n"
                           "\r\n"
                           "abcd");
  ASSERT_EQ(result.state, HttpParser::State::kReady);
  EXPECT_EQ(result.request.method, "POST");
  EXPECT_EQ(result.request.target, "/v1/recommend?trace=1");
  EXPECT_EQ(result.request.Path(), "/v1/recommend");
  EXPECT_EQ(result.request.body, "abcd");
  ASSERT_NE(result.request.FindHeader("host"), nullptr)
      << "header lookup must be case-insensitive";
  EXPECT_EQ(*result.request.FindHeader("HOST"), "localhost");
  EXPECT_TRUE(result.request.KeepAlive());
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

TEST(HttpParserTest, AccumulatesAcrossArbitrarySplits) {
  const std::string wire =
      "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
  // Feed one byte at a time; every prefix must report kNeedMore.
  HttpParser parser{HttpParser::Limits{}};
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    const auto partial = Feed(&parser, wire.substr(i, 1));
    ASSERT_EQ(partial.state, HttpParser::State::kNeedMore)
        << "after " << (i + 1) << " bytes";
  }
  const auto result = Feed(&parser, wire.substr(wire.size() - 1));
  ASSERT_EQ(result.state, HttpParser::State::kReady);
  EXPECT_EQ(result.request.target, "/healthz");
}

TEST(HttpParserTest, PipelinedRequestsComeOutOneAtATime) {
  HttpParser parser{HttpParser::Limits{}};
  const std::string one = "GET /a HTTP/1.1\r\n\r\n";
  const std::string two = "GET /b HTTP/1.1\r\n\r\n";
  const auto first = Feed(&parser, one + two);
  ASSERT_EQ(first.state, HttpParser::State::kReady);
  EXPECT_EQ(first.request.target, "/a");
  const auto second = parser.Next();
  ASSERT_EQ(second.state, HttpParser::State::kReady);
  EXPECT_EQ(second.request.target, "/b");
  EXPECT_EQ(parser.Next().state, HttpParser::State::kNeedMore);
}

TEST(HttpParserTest, KeepAliveSemantics) {
  const auto keep_alive = [](const std::string& version,
                             const std::string& connection) {
    HttpParser parser{HttpParser::Limits{}};
    std::string wire = "GET / " + version + "\r\n";
    if (!connection.empty()) wire += "Connection: " + connection + "\r\n";
    wire += "\r\n";
    const auto result = Feed(&parser, wire);
    EXPECT_EQ(result.state, HttpParser::State::kReady);
    return result.request.KeepAlive();
  };
  EXPECT_TRUE(keep_alive("HTTP/1.1", ""));
  EXPECT_FALSE(keep_alive("HTTP/1.1", "close"));
  EXPECT_FALSE(keep_alive("HTTP/1.0", ""));
  EXPECT_TRUE(keep_alive("HTTP/1.0", "keep-alive"));
  // Connection is a token list (RFC 7230 §6.1): a token anywhere counts,
  // case-insensitively, and "close" wins over "keep-alive".
  EXPECT_FALSE(keep_alive("HTTP/1.1", "close, TE"));
  EXPECT_FALSE(keep_alive("HTTP/1.1", "TE,close"));
  EXPECT_FALSE(keep_alive("HTTP/1.1", "Upgrade ,  CLOSE"));
  EXPECT_FALSE(keep_alive("HTTP/1.0", "keep-alive, close"));
  EXPECT_TRUE(keep_alive("HTTP/1.0", "Keep-Alive, Upgrade"));
  EXPECT_TRUE(keep_alive("HTTP/1.0", "TE,,keep-alive"));
  EXPECT_TRUE(keep_alive("HTTP/1.1", "Upgrade"));
  EXPECT_FALSE(keep_alive("HTTP/1.0", "Upgrade"));
  EXPECT_TRUE(keep_alive("HTTP/1.1", "closed, keep-alives"))
      << "tokens match whole, not by prefix";
  // A second Connection header is part of the same list.
  HttpParser parser{HttpParser::Limits{}};
  const auto two_headers = Feed(&parser,
                                "GET / HTTP/1.1\r\nConnection: keep-alive\r\n"
                                "Connection: close\r\n\r\n");
  ASSERT_EQ(two_headers.state, HttpParser::State::kReady);
  EXPECT_FALSE(two_headers.request.KeepAlive());
}

TEST(HttpParserTest, RejectsMalformedRequests) {
  const auto error_status = [](const std::string& wire) {
    HttpParser parser{HttpParser::Limits{}};
    const auto result = Feed(&parser, wire);
    return result.state == HttpParser::State::kError ? result.error_status : 0;
  };
  EXPECT_EQ(error_status("NOT A REQUEST LINE AT ALL\r\n\r\n"), 400);
  EXPECT_EQ(error_status("GET noslash HTTP/1.1\r\n\r\n"), 400);
  EXPECT_EQ(error_status("GET / HTTP/2.0\r\n\r\n"), 400);
  EXPECT_EQ(error_status("GET / HTTP/1.1\r\nBad Header\r\n\r\n"), 400);
  EXPECT_EQ(error_status("GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n"), 400);
  EXPECT_EQ(error_status("GET / HTTP/1.1\r\nContent-Length: 1\r\n"
                         "Content-Length: 2\r\n\r\n"),
            400);
  // Non-chunked codings change framing in ways we do not implement: 501.
  EXPECT_EQ(
      error_status("POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n"),
      501);
  EXPECT_EQ(error_status("POST / HTTP/1.1\r\n"
                         "Transfer-Encoding: gzip, chunked\r\n\r\n"),
            501);
  // TE + Content-Length together is the classic smuggling vector: 400.
  EXPECT_EQ(error_status("POST / HTTP/1.1\r\n"
                         "Transfer-Encoding: chunked\r\n"
                         "Content-Length: 4\r\n\r\n"),
            400);
  EXPECT_EQ(error_status("POST / HTTP/1.1\r\n"
                         "Transfer-Encoding: chunked\r\n"
                         "Transfer-Encoding: chunked\r\n\r\n"),
            400);
}

TEST(HttpParserTest, DecodesChunkedBody) {
  HttpParser parser{HttpParser::Limits{}};
  const auto result = Feed(&parser,
                           "POST /v1/recommend HTTP/1.1\r\n"
                           "Transfer-Encoding: chunked\r\n"
                           "\r\n"
                           "4\r\nWiki\r\n"
                           "5\r\npedia\r\n"
                           "0\r\n"
                           "\r\n");
  ASSERT_EQ(result.state, HttpParser::State::kReady);
  EXPECT_EQ(result.request.body, "Wikipedia");
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

TEST(HttpParserTest, ChunkedHandlesExtensionsCaseAndTrailers) {
  HttpParser parser{HttpParser::Limits{}};
  const auto result = Feed(&parser,
                           "POST / HTTP/1.1\r\n"
                           "transfer-encoding: CHUNKED\r\n"
                           "\r\n"
                           "A;name=value\r\n0123456789\r\n"
                           "0\r\n"
                           "X-Trailer: ignored\r\n"
                           "\r\n");
  ASSERT_EQ(result.state, HttpParser::State::kReady);
  EXPECT_EQ(result.request.body, "0123456789");
  EXPECT_EQ(result.request.FindHeader("X-Trailer"), nullptr)
      << "trailers are discarded, not promoted to headers";
}

TEST(HttpParserTest, ChunkedAccumulatesAcrossArbitrarySplits) {
  const std::string wire =
      "POST / HTTP/1.1\r\n"
      "Transfer-Encoding: chunked\r\n"
      "\r\n"
      "3\r\nabc\r\n"
      "1\r\nd\r\n"
      "0\r\n\r\n";
  HttpParser parser{HttpParser::Limits{}};
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    const auto partial = Feed(&parser, wire.substr(i, 1));
    ASSERT_EQ(partial.state, HttpParser::State::kNeedMore)
        << "after " << (i + 1) << " bytes";
  }
  const auto result = Feed(&parser, wire.substr(wire.size() - 1));
  ASSERT_EQ(result.state, HttpParser::State::kReady);
  EXPECT_EQ(result.request.body, "abcd");
  // A pipelined request after the chunked one still comes out cleanly.
  const auto next = Feed(&parser, "GET /after HTTP/1.1\r\n\r\n");
  ASSERT_EQ(next.state, HttpParser::State::kReady);
  EXPECT_EQ(next.request.target, "/after");
}

TEST(HttpParserTest, ChunkedRejectsMalformedFraming) {
  const auto error_status = [](const std::string& bodywire) {
    HttpParser parser{HttpParser::Limits{}};
    const auto result =
        Feed(&parser, "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n" +
                          bodywire);
    return result.state == HttpParser::State::kError ? result.error_status : 0;
  };
  EXPECT_EQ(error_status("zz\r\nab\r\n0\r\n\r\n"), 400);  // Junk size.
  EXPECT_EQ(error_status("\r\nab\r\n0\r\n\r\n"), 400);    // Empty size.
  EXPECT_EQ(error_status("-4\r\nabcd\r\n0\r\n\r\n"), 400);
  EXPECT_EQ(error_status("4\r\nabcdXX0\r\n\r\n"), 400);  // Missing CRLF.
  EXPECT_EQ(error_status("2\r\nab\r\n0\r\nno colon trailer\r\n\r\n"), 400);
  // 17 hex digits cannot be a size we would ever accept.
  EXPECT_EQ(error_status(std::string(17, '1') + "\r\n"), 400);
}

TEST(HttpParserTest, ChunkedEnforcesBodyLimits) {
  HttpParser::Limits limits;
  limits.max_body_bytes = 16;

  {
    // Declared chunk beyond the cap: 413 from the size line alone, before
    // any chunk byte arrives.
    HttpParser parser{limits};
    const auto result =
        Feed(&parser,
             "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n11\r\n");
    ASSERT_EQ(result.state, HttpParser::State::kError);
    EXPECT_EQ(result.error_status, 413);
  }
  {
    // Chunks individually under the cap but cumulatively over it.
    HttpParser parser{limits};
    const auto result = Feed(&parser,
                             "POST / HTTP/1.1\r\n"
                             "Transfer-Encoding: chunked\r\n\r\n"
                             "9\r\n012345678\r\n"
                             "9\r\n012345678\r\n");
    ASSERT_EQ(result.state, HttpParser::State::kError);
    EXPECT_EQ(result.error_status, 413);
  }
  {
    // An encoded stream that never completes (a size line dribbling chunk
    // extensions forever) must trip the encoded cap rather than buffer
    // indefinitely below the server's flood guard.
    HttpParser parser{limits};
    HttpParser::Result result = Feed(
        &parser, "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n1;");
    for (int i = 0; i < 4096 && result.state == HttpParser::State::kNeedMore;
         ++i) {
      result = Feed(&parser, std::string(64, 'x'));
    }
    ASSERT_EQ(result.state, HttpParser::State::kError);
    EXPECT_EQ(result.error_status, 413);
  }
}

TEST(HttpParserTest, ChunkedTrickleAtTheEncodedCapIsLinear) {
  // One-byte chunks up to the encoded-stream cap (1 MiB + 2 KiB), one
  // Next() per chunk, as a client trickling them would drive the loop. The
  // decoder keeps its position and the decoded body across calls; a parser
  // that re-decodes from the body start on every Next() does ~10^10 chunk
  // steps here.
  const HttpParser::Limits limits;
  const size_t max_encoded = limits.max_body_bytes + 2048;
  const size_t chunks = (max_encoded - 5) / 6;  // "1\r\nX\r\n" + "0\r\n\r\n"
  ASSERT_GT(chunks, 175'000u);
  HttpParser parser{limits};
  ASSERT_EQ(Feed(&parser,
                 "POST /v1/recommend HTTP/1.1\r\n"
                 "Transfer-Encoding: chunked\r\n\r\n")
                .state,
            HttpParser::State::kNeedMore);
  std::string expected;
  expected.reserve(chunks);
  for (size_t i = 0; i < chunks; ++i) {
    const char byte = static_cast<char>('a' + i % 26);
    expected.push_back(byte);
    const std::string chunk = std::string("1\r\n") + byte + "\r\n";
    const auto partial = Feed(&parser, chunk);
    ASSERT_EQ(partial.state, HttpParser::State::kNeedMore) << "chunk " << i;
  }
  const auto result = Feed(&parser, "0\r\n\r\n");
  ASSERT_EQ(result.state, HttpParser::State::kReady);
  EXPECT_EQ(result.request.body, expected);
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

TEST(HttpParserTest, PipelinedBurstOfOneMebibyteIsLinear) {
  // 45 591 pipelined requests in one 1 MiB burst, fed whole and in the
  // event loop's 16 KiB reads. Consumed requests advance a read offset;
  // removing each from the front of the buffer would move the rest of the
  // megabyte once per request.
  const std::string one = "GET /livez HTTP/1.1\r\n\r\n";
  const size_t count = (size_t{1} << 20) / one.size() + 1;
  std::string burst;
  for (size_t i = 0; i < count; ++i) burst += one;
  ASSERT_GE(burst.size(), size_t{1} << 20);
  for (const size_t read_size : {burst.size(), size_t{16384}}) {
    HttpParser parser{HttpParser::Limits{}};
    size_t parsed = 0;
    for (size_t fed = 0; fed < burst.size(); fed += read_size) {
      parser.Append(burst.data() + fed,
                    std::min(read_size, burst.size() - fed));
      for (;;) {
        const auto result = parser.Next();
        if (result.state == HttpParser::State::kNeedMore) break;
        ASSERT_EQ(result.state, HttpParser::State::kReady);
        ASSERT_EQ(result.request.target, "/livez") << "request " << parsed;
        ++parsed;
      }
    }
    EXPECT_EQ(parsed, count) << "read size " << read_size;
    EXPECT_EQ(parser.buffered_bytes(), 0u);
  }
}

TEST(HttpParserTest, BodyTrickleBehindALargeHeadParsesTheHeadOnce) {
  // A 48 KiB head, then a 64 KiB Content-Length body one byte per Next():
  // the head is parsed once, not once per body byte.
  std::string head = "POST /v1/recommend HTTP/1.1\r\n";
  for (int i = 0; i < 768; ++i) {
    head += "X-Pad-" + std::to_string(i) + ": " + std::string(48, 'p') + "\r\n";
  }
  const size_t body_size = 64 * 1024;
  head += "Content-Length: " + std::to_string(body_size) + "\r\n\r\n";
  ASSERT_LT(head.size(), HttpParser::Limits{}.max_header_bytes);
  HttpParser parser{HttpParser::Limits{}};
  ASSERT_EQ(Feed(&parser, head).state, HttpParser::State::kNeedMore);
  std::string body;
  HttpParser::Result result;
  for (size_t i = 0; i < body_size; ++i) {
    const char byte = static_cast<char>('0' + i % 10);
    body.push_back(byte);
    result = Feed(&parser, std::string(1, byte));
    if (i + 1 < body_size) {
      ASSERT_EQ(result.state, HttpParser::State::kNeedMore) << "byte " << i;
    }
  }
  ASSERT_EQ(result.state, HttpParser::State::kReady);
  EXPECT_EQ(result.request.body, body);
  EXPECT_EQ(result.request.headers.size(), 769u);
  EXPECT_EQ(*result.request.FindHeader("x-pad-767"), std::string(48, 'p'));
}

TEST(HttpParserTest, CapsGiveTheSameVerdictHoweverTheBytesAreSplit) {
  HttpParser::Limits limits;
  limits.max_header_bytes = 64;
  limits.max_body_bytes = 16;
  // What the parser reports for `wire` fed in pieces of `step` bytes,
  // draining after each piece like the event loop.
  const auto run = [&limits](const std::string& wire, size_t step) {
    HttpParser parser{limits};
    std::string log;
    for (size_t fed = 0; fed < wire.size(); fed += step) {
      parser.Append(wire.data() + fed, std::min(step, wire.size() - fed));
      for (;;) {
        const auto result = parser.Next();
        if (result.state == HttpParser::State::kReady) {
          log += "[" + result.request.target + " " + result.request.body + "]";
          continue;
        }
        if (result.state == HttpParser::State::kError) {
          return log + "error " + std::to_string(result.error_status);
        }
        break;
      }
    }
    return log;
  };
  const std::string next = "GET /n HTTP/1.1\r\n\r\n";
  // 64 bytes before the blank line: at the cap, with the blank line
  // trickling in after the window is full.
  const std::string head_at_cap =
      "GET /h HTTP/1.1\r\nX: " + std::string(44, 'p') + "\r\n\r\n";
  const std::string head_past_cap =
      "GET /h HTTP/1.1\r\nX: " + std::string(45, 'p') + "\r\n\r\n";
  const std::string chunked =
      "POST /c HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
  // Extensions that push the last size line past the encoded cap
  // (16 + 2048 bytes), with the whole body present.
  const std::string padded_chunk = "1;" + std::string(2100, 'e') + "\r\nz\r\n";
  const struct {
    std::string wire;
    std::string verdict;
  } cases[] = {
      {head_at_cap + next, "[/h ][/n ]"},
      {head_past_cap + next, "error 413"},
      {chunked + "3\r\nabc\r\n0\r\n\r\n" + next, "[/c abc][/n ]"},
      {chunked + padded_chunk + "0\r\n\r\n" + next, "error 413"},
      {chunked + "1\r\nz\r\n0\r\n" + std::string(2100, 't') + ": x\r\n\r\n",
       "error 413"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(run(c.wire, c.wire.size()), c.verdict) << c.wire.substr(0, 60);
    EXPECT_EQ(run(c.wire, 1), c.verdict) << c.wire.substr(0, 60);
    EXPECT_EQ(run(c.wire, 7), c.verdict) << c.wire.substr(0, 60);
  }
}

TEST(HttpParserTest, EnforcesSizeLimits) {
  HttpParser::Limits limits;
  limits.max_header_bytes = 128;
  limits.max_body_bytes = 16;

  HttpParser header_parser{limits};
  const auto header_result =
      Feed(&header_parser,
           "GET / HTTP/1.1\r\nX-Pad: " + std::string(300, 'a'));
  ASSERT_EQ(header_result.state, HttpParser::State::kError);
  EXPECT_EQ(header_result.error_status, 413);

  HttpParser body_parser{limits};
  const auto body_result =
      Feed(&body_parser, "POST / HTTP/1.1\r\nContent-Length: 1000\r\n\r\n");
  ASSERT_EQ(body_result.state, HttpParser::State::kError);
  EXPECT_EQ(body_result.error_status, 413)
      << "oversize body must be rejected from the declared length, before "
         "any body bytes arrive";
}

TEST(HttpParserTest, StaysPoisonedAfterError) {
  HttpParser parser{HttpParser::Limits{}};
  ASSERT_EQ(Feed(&parser, "BROKEN\r\n\r\n").state, HttpParser::State::kError);
  const auto again = Feed(&parser, "GET / HTTP/1.1\r\n\r\n");
  EXPECT_EQ(again.state, HttpParser::State::kError)
      << "framing is unrecoverable after a parse error";
  EXPECT_EQ(again.error_status, 400);
}

TEST(HttpParserTest, PoisonedParserStopsBuffering) {
  // Found by the fuzz harness invariant: Append() after a protocol error
  // used to keep growing the buffer forever even though nothing would ever
  // be parsed from it — unbounded memory per hostile connection.
  HttpParser parser{HttpParser::Limits{}};
  ASSERT_EQ(Feed(&parser, "BROKEN\r\n\r\n").state, HttpParser::State::kError);
  EXPECT_EQ(parser.buffered_bytes(), 0u);
  const std::string flood(1 << 16, 'x');
  for (int i = 0; i < 4; ++i) parser.Append(flood.data(), flood.size());
  EXPECT_EQ(parser.buffered_bytes(), 0u)
      << "a poisoned parser must drop, not buffer, further input";
}

TEST(HttpParserTest, ContentLengthOverflowAndLimitEdges) {
  HttpParser::Limits limits;
  limits.max_body_bytes = 16;
  const auto error_status = [&limits](const std::string& value) {
    HttpParser parser{limits};
    const auto result =
        Feed(&parser, "POST / HTTP/1.1\r\nContent-Length: " + value + "\r\n\r\n");
    return result.state == HttpParser::State::kError ? result.error_status : 0;
  };
  // Values that do not fit uint64_t are 413 (a size we will never accept),
  // rejected from the declared length alone — no body byte was fed.
  EXPECT_EQ(error_status("18446744073709551616"), 413);
  EXPECT_EQ(error_status(std::string(64, '9')), 413);
  // Garbage is 400, not UB and not silent truncation.
  EXPECT_EQ(error_status("0x10"), 400);
  EXPECT_EQ(error_status("+5"), 400);
  // Exactly at the body cap parses; one past it is 413.
  EXPECT_EQ(error_status("17"), 413);
  HttpParser at_cap{limits};
  const auto ready = Feed(
      &at_cap, "POST / HTTP/1.1\r\nContent-Length: 16\r\n\r\n0123456789abcdef");
  ASSERT_EQ(ready.state, HttpParser::State::kReady);
  EXPECT_EQ(ready.request.body.size(), 16u);
  // Leading zeros are valid 1*DIGIT and must not bypass the cap check.
  EXPECT_EQ(error_status("000000000000000000000017"), 413);
}

TEST(HttpParserTest, HeaderByteCapCoversCompleteAndIncompleteSections) {
  HttpParser::Limits limits;
  limits.max_header_bytes = 128;
  // Complete header section over the cap: 413.
  HttpParser complete{limits};
  const auto complete_result =
      Feed(&complete,
           "GET / HTTP/1.1\r\nX-Pad: " + std::string(200, 'a') + "\r\n\r\n");
  ASSERT_EQ(complete_result.state, HttpParser::State::kError);
  EXPECT_EQ(complete_result.error_status, 413);
  // Incomplete section already over the cap: 413 without waiting for the
  // terminator (the flood would otherwise buffer unboundedly).
  HttpParser incomplete{limits};
  const auto incomplete_result =
      Feed(&incomplete, "GET / HTTP/1.1\r\nX-Pad: " + std::string(200, 'a'));
  ASSERT_EQ(incomplete_result.state, HttpParser::State::kError);
  EXPECT_EQ(incomplete_result.error_status, 413);
  // Just under the cap with the terminator still pending: keep reading.
  HttpParser under{limits};
  const auto under_result = Feed(&under, "GET / HTTP/1.1\r\nX-Pad: abc");
  EXPECT_EQ(under_result.state, HttpParser::State::kNeedMore);
}

TEST(HttpResponseTest, SerializeEmitsFramingHeaders) {
  HttpResponse response = HttpResponse::JsonBody(200, "{\"ok\":true}");
  response.headers.emplace_back("Retry-After", "1");
  const std::string wire = SerializeResponse(response, /*keep_alive=*/true);
  EXPECT_EQ(wire.find("HTTP/1.1 200 OK\r\n"), 0u);
  EXPECT_NE(wire.find("Content-Type: application/json\r\n"),
            std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 11\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Retry-After: 1\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\n{\"ok\":true}"), std::string::npos);

  const std::string close_wire =
      SerializeResponse(HttpResponse::Text(503, "busy"), /*keep_alive=*/false);
  EXPECT_EQ(close_wire.find("HTTP/1.1 503 Service Unavailable\r\n"), 0u);
  EXPECT_NE(close_wire.find("Connection: close\r\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Poller (both backends, driven through a pipe)
// ---------------------------------------------------------------------------

class PollerTest : public ::testing::TestWithParam<bool> {};

TEST_P(PollerTest, ReportsReadabilityAndHonorsInterestUpdates) {
  auto poller = Poller::Create(/*force_poll=*/GetParam());
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);

  ASSERT_TRUE(poller->Add(fds[0], /*want_read=*/true, /*want_write=*/false)
                  .ok());
  std::vector<Poller::Event> events;
  ASSERT_TRUE(poller->Wait(0, &events).ok());
  EXPECT_TRUE(events.empty()) << "no data yet";

  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  ASSERT_TRUE(poller->Wait(1000, &events).ok());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].fd, fds[0]);
  EXPECT_TRUE(events[0].readable);

  // Level-triggered: unread data is reported again.
  ASSERT_TRUE(poller->Wait(0, &events).ok());
  ASSERT_EQ(events.size(), 1u);

  // Dropping read interest silences the fd even with data pending.
  ASSERT_TRUE(poller->Update(fds[0], /*want_read=*/false,
                             /*want_write=*/false)
                  .ok());
  ASSERT_TRUE(poller->Wait(0, &events).ok());
  EXPECT_TRUE(events.empty());

  poller->Remove(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_P(PollerTest, BackendNameMatchesSelection) {
  auto poller = Poller::Create(/*force_poll=*/GetParam());
  if (GetParam()) {
    EXPECT_STREQ(poller->backend_name(), "poll");
  } else {
#if defined(__linux__)
    EXPECT_STREQ(poller->backend_name(), "epoll");
#else
    EXPECT_STREQ(poller->backend_name(), "poll");
#endif
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, PollerTest, ::testing::Bool(),
                         [](const auto& param_info) {
                           return param_info.param ? "forced_poll" : "platform";
                         });

// ---------------------------------------------------------------------------
// Socket utilities
// ---------------------------------------------------------------------------

TEST(SocketUtilTest, ListenTcpBindsEphemeralPort) {
  auto fd = ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  auto port = LocalPort(*fd);
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  EXPECT_GT(*port, 0);
  CloseFd(*fd);
}

TEST(SocketUtilTest, ListenTcpRejectsNonNumericHost) {
  auto fd = ListenTcp("not a host", 0);
  ASSERT_FALSE(fd.ok());
  EXPECT_EQ(fd.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace juggler::net
