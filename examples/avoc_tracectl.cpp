// Trace control tool: snapshot a running server's flight recorder over
// the TRACE_DUMP verb and convert the canonical AVOC-TRACE text into
// Chrome trace_event JSON for chrome://tracing or Perfetto — the
// operational companion of the tracing section in docs/OBSERVABILITY.md.
//
// Usage:
//   avoc_tracectl dump HOST PORT [OUT]      fetch TRACE_DUMP (raw text)
//   avoc_tracectl convert [IN [OUT]]        AVOC-TRACE text -> Chrome JSON
//   avoc_tracectl selftest                  record -> dump -> convert -> check
//
// `dump` writes the raw dump (stdout by default), so a round trip is
//   avoc_tracectl dump voter1 7000 | avoc_tracectl convert > trace.json
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "obs/trace_export.h"
#include "runtime/remote.h"

namespace {

using avoc::obs::ScopedSpan;
using avoc::obs::SpanContext;
using avoc::obs::SpanKind;
using avoc::obs::TraceDumpToChromeJson;
using avoc::obs::Tracer;
using avoc::obs::TracerOptions;
using avoc::runtime::RemoteVoterClient;

bool WriteOut(const std::string& path, const std::string& text) {
  if (path.empty()) {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return true;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) {
    std::fprintf(stderr, "write %s failed\n", path.c_str());
    return false;
  }
  return true;
}

int Dump(const std::string& host, int port, const std::string& out_path) {
  auto client = RemoteVoterClient::ConnectBinary(
      host, static_cast<uint16_t>(port));
  if (!client.ok()) {
    std::fprintf(stderr, "connect %s:%d: %s\n", host.c_str(), port,
                 client.status().ToString().c_str());
    return 1;
  }
  if (!client->SetRequestTimeoutMs(5000).ok()) {
    std::fprintf(stderr, "set timeout failed\n");
    return 1;
  }
  auto dump = client->TraceDump();
  if (!dump.ok()) {
    std::fprintf(stderr, "TRACE_DUMP: %s\n", dump.status().ToString().c_str());
    return 1;
  }
  return WriteOut(out_path, *dump) ? 0 : 1;
}

int Convert(const std::string& in_path, const std::string& out_path) {
  std::string text;
  if (in_path.empty()) {
    char chunk[4096];
    size_t n = 0;
    while ((n = std::fread(chunk, 1, sizeof(chunk), stdin)) > 0) {
      text.append(chunk, n);
    }
  } else {
    std::ifstream in(in_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "open %s: no such file\n", in_path.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  auto json = TraceDumpToChromeJson(text);
  if (!json.ok()) {
    std::fprintf(stderr, "convert: %s\n", json.status().ToString().c_str());
    return 1;
  }
  return WriteOut(out_path, *json) ? 0 : 1;
}

// CI smoke: record a miniature request tree into an in-process tracer,
// round it through the canonical dump and the Chrome converter, and
// check the pieces that operators depend on.
int SelfTest() {
  uint64_t tick = 0;
  TracerOptions options;
  options.ring_count = 1;
  options.ring_capacity = 64;
  options.now_ns = [&tick] { return tick += 1000; };
  Tracer tracer(options);

  SpanContext wire;
  wire.trace_id = Tracer::DeriveTraceId("tracectl-selftest", 1);
  wire.flags = 1;
  {
    ScopedSpan root(&tracer, SpanKind::kClient, "client.submit_batch", wire,
                    "group=demo seq=1");
    ScopedSpan attempt(&tracer, SpanKind::kClient, "client.attempt",
                       root.context());
    ScopedSpan server(&tracer, SpanKind::kServer, "server.submit_batch_seq",
                      attempt.context(), "group=demo route=local dedup=miss");
    tracer.Event("server.backpressure", "busy");
    ScopedSpan engine(&tracer, SpanKind::kEngine, "engine.batch",
                      server.context());
    ScopedSpan wal(&tracer, SpanKind::kStorage, "wal.append",
                   engine.context());
    ScopedSpan fsync(&tracer, SpanKind::kStorage, "wal.fsync", wal.context(),
                     "bytes=64");
  }

  const std::string dump = tracer.DumpText();
  if (dump.rfind("AVOC-TRACE v1\n", 0) != 0) {
    std::fprintf(stderr, "selftest: dump missing header\n");
    return 1;
  }
  if (tracer.DumpText() != dump) {
    std::fprintf(stderr, "selftest: dump is not stable\n");
    return 1;
  }
  auto json = TraceDumpToChromeJson(dump);
  if (!json.ok()) {
    std::fprintf(stderr, "selftest: convert failed: %s\n",
                 json.status().ToString().c_str());
    return 1;
  }
  for (const char* needle :
       {"\"traceEvents\"", "client.submit_batch", "server.submit_batch_seq",
        "engine.batch", "wal.append", "wal.fsync", "\"ph\":\"X\"",
        "\"ph\":\"i\""}) {
    if (json->find(needle) == std::string::npos) {
      std::fprintf(stderr, "selftest: JSON missing %s\n", needle);
      return 1;
    }
  }
  if (TraceDumpToChromeJson("not a trace\n").ok()) {
    std::fprintf(stderr, "selftest: converter accepted garbage\n");
    return 1;
  }
  std::printf("selftest OK (%zu dump bytes, %zu json bytes)\n", dump.size(),
              json->size());
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage: avoc_tracectl dump HOST PORT [OUT]\n"
               "       avoc_tracectl convert [IN [OUT]]\n"
               "       avoc_tracectl selftest\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "dump" && (args.size() == 2 || args.size() == 3)) {
    return Dump(args[0], std::atoi(args[1].c_str()),
                args.size() == 3 ? args[2] : "");
  }
  if (command == "convert" && args.size() <= 2) {
    return Convert(args.empty() ? "" : args[0],
                   args.size() == 2 ? args[1] : "");
  }
  if (command == "selftest") return SelfTest();
  Usage();
  return 2;
}
