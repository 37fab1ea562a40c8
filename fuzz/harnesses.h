#ifndef JUGGLER_FUZZ_HARNESSES_H_
#define JUGGLER_FUZZ_HARNESSES_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

/// \file
/// \brief Fuzz-harness bodies for every surface that parses untrusted bytes.
///
/// Each `Run*` function has the libFuzzer `LLVMFuzzerTestOneInput` contract
/// (arbitrary bytes in, 0 out, abort on an invariant violation) but lives in
/// a plain library with no fuzzer runtime, so the exact same code runs in
/// three places:
///
///  - `fuzz_*` libFuzzer binaries (clang, `-DJUGGLER_FUZZ=ON`,
///    `-fsanitize=fuzzer,address`) — the discovery loop;
///  - `fuzz_replay` — a dependency-free driver that replays saved inputs
///    (any compiler, any sanitizer) for crash reproduction and minimization;
///  - `corpus_replay_test` — a tier-1 ctest that replays every committed
///    corpus input, so each fuzz finding is a permanent regression test.
///
/// Harnesses must be deterministic per input and must not read the clock,
/// the environment, or any state a previous input could have left behind
/// (the model-registry fixture in RunRecommendServer is built once and then
/// only read).

namespace juggler::fuzz {

/// Feeds the bytes to net::HttpParser. The first input byte selects how the
/// rest is split across Append() calls (0 = one shot, otherwise chunks of
/// `(byte % 97) + 1` bytes), so framing across TCP segment boundaries is
/// part of the explored space. Checks: drained parsers keep their buffer
/// below the configured limits, poisoned parsers hold zero bytes, every
/// error maps to 400/413/501, and the split-feed oracle: the same bytes fed
/// whole yield the same requests, the same error and the same leftover.
int RunHttpParser(const uint8_t* data, size_t size);

/// Parses the bytes as a JSON document. Accepted documents are run through
/// the parse -> Dump -> reparse oracle: the writer's output must always
/// reparse, and a second Dump must be byte-identical (idempotence).
int RunJson(const uint8_t* data, size_t size);

/// Feeds the bytes to the model-artifact loader
/// (core::TrainedJugglerFromString — the exact path ModelRegistry::Refresh
/// uses for on-disk artifacts). Accepted artifacts are saved and reloaded:
/// the save of a loaded model must itself load, byte-stably.
int RunModelLoader(const uint8_t* data, size_t size);

/// Feeds the bytes to rpc::FrameDecoder (the shard tier's binary framing).
/// The first input byte selects the Append() chunking exactly like
/// RunHttpParser. Checks: decoded frames survive an encode/decode round
/// trip losslessly, poisoned decoders hold zero bytes, drained decoders
/// stay under header + max-payload, and every error carries a reason.
int RunRpcFrame(const uint8_t* data, size_t size);

/// Feeds the bytes to online::DecodeObservationBatch (the feedback
/// subsystem's wire format — the same decoder behind both the binary
/// /v1/observe body and the shard kObserve frame payload). Accepted batches
/// must satisfy the documented bounds (app length, finite numbers, count
/// cap, exact size math) and the round-trip oracle: re-encoding reproduces
/// the input bytes, and the re-encode decodes to identical fields.
int RunObservationDecoder(const uint8_t* data, size_t size);

/// End-to-end: the bytes are a client byte stream, parsed by HttpParser (an
/// in-memory transport — no sockets) and routed through a real
/// HttpRecommendServer (registry + service trained once at startup) via
/// HandleFast()/Handle(), exactly as the event loop would. Every response
/// must serialize to well-formed HTTP/1.1 framing with a known status code,
/// and every 200 recommend body must reparse with Json::Parse and re-dump
/// to identical bytes.
int RunRecommendServer(const uint8_t* data, size_t size);

/// Always-on invariant check: `assert` compiles away under NDEBUG (the
/// default RelWithDebInfo build), which would silently disable every oracle
/// above in exactly the builds CI fuzzes.
#define JUGGLER_FUZZ_CHECK(cond, what)                                   \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "JUGGLER_FUZZ_CHECK failed: %s (%s:%d)\n",    \
                   what, __FILE__, __LINE__);                            \
      std::abort();                                                      \
    }                                                                    \
  } while (0)

}  // namespace juggler::fuzz

#endif  // JUGGLER_FUZZ_HARNESSES_H_
