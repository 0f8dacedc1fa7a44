// TraceSink unit tests: recording, interning, per-kind tallies, the Chrome
// exporter's JSON shape, and the binary round trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "obs/trace.hpp"

namespace knots::obs {
namespace {

TEST(TraceSink, StartsEmptyWithEmptyStringInterned) {
  TraceSink sink;
  EXPECT_TRUE(sink.empty());
  EXPECT_EQ(sink.size(), 0u);
  ASSERT_EQ(sink.strings().size(), 1u);
  EXPECT_EQ(sink.strings()[0], "");
  EXPECT_EQ(sink.detail(0), "");
}

TEST(TraceSink, RecordsEventsInOrder) {
  TraceSink sink;
  sink.record(10, EventKind::kSubmit, 0);
  sink.record(20, EventKind::kPlace, 0, 3, 1024.0);
  sink.record(20, EventKind::kDecision, 0, 3, 1024.0, "cbp:best-fit");
  ASSERT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink.events()[0].kind, EventKind::kSubmit);
  EXPECT_EQ(sink.events()[1].a, 0);
  EXPECT_EQ(sink.events()[1].b, 3);
  EXPECT_EQ(sink.events()[1].value, 1024.0);
  EXPECT_EQ(sink.detail(sink.events()[2].detail), "cbp:best-fit");
  EXPECT_EQ(sink.count(EventKind::kSubmit), 1u);
  EXPECT_EQ(sink.count(EventKind::kPlace), 1u);
  EXPECT_EQ(sink.count(EventKind::kCrash), 0u);
}

TEST(TraceSink, InterningDeduplicates) {
  TraceSink sink;
  const auto a = sink.intern("cbp:best-fit");
  const auto b = sink.intern("cbp:no-fit");
  const auto c = sink.intern("cbp:best-fit");
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_EQ(sink.intern(""), 0u);
  // Indices stay stable as the table grows past SSO reallocation points.
  for (int i = 0; i < 100; ++i) sink.intern("rationale-" + std::to_string(i));
  EXPECT_EQ(sink.detail(a), "cbp:best-fit");
  EXPECT_EQ(sink.detail(b), "cbp:no-fit");
}

TEST(TraceSink, PerKindTallyMatchesLinearCount) {
  TraceSink sink;
  for (int i = 0; i < 7; ++i) sink.record(i, EventKind::kScrape);
  for (int i = 0; i < 3; ++i) sink.record(i, EventKind::kPlace, i, i);
  std::size_t scrapes = 0;
  for (const auto& e : sink.events()) {
    if (e.kind == EventKind::kScrape) ++scrapes;
  }
  EXPECT_EQ(sink.count(EventKind::kScrape), scrapes);
  EXPECT_EQ(sink.count(EventKind::kPlace), 3u);
}

TEST(TraceSink, ClearResetsEverything) {
  TraceSink sink;
  sink.record(1, EventKind::kPlace, 0, 1, 2.0, "detail");
  sink.clear();
  EXPECT_TRUE(sink.empty());
  EXPECT_EQ(sink.count(EventKind::kPlace), 0u);
  EXPECT_EQ(sink.strings().size(), 1u);
  // Interning after clear() restarts cleanly at index 1.
  EXPECT_EQ(sink.intern("fresh"), 1u);
}

TEST(TraceSink, ChromeExportIsWellFormedJson) {
  TraceSink sink;
  sink.record(0, EventKind::kSubmit, 7);
  sink.record(1000, EventKind::kPlace, 7, 2, 512.0);
  sink.record(1500, EventKind::kStart, 7, 2);
  sink.record(9000, EventKind::kComplete, 7, -1, 1.0);
  sink.record(2000, EventKind::kNodeDown, 1);
  sink.record(5000, EventKind::kNodeUp, 1);
  sink.record(3000, EventKind::kDecision, 8, -1, 0.0, "cbp:no-fit");
  std::ostringstream os;
  sink.export_chrome_trace(os);
  const std::string json = os.str();

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instants
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // derived slices
  EXPECT_NE(json.find("\"name\":\"place\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node down\""), std::string::npos);
  EXPECT_NE(json.find("cbp:no-fit"), std::string::npos);
  // Balanced braces/brackets — cheap structural well-formedness check.
  long depth = 0;
  for (const char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(TraceSink, BinaryRoundTripIsExact) {
  TraceSink sink;
  sink.record(0, EventKind::kSubmit, 1);
  sink.record(10, EventKind::kPlace, 1, 0, 768.5, "resag:random-feasible");
  sink.record(20, EventKind::kFaultInject, 2, -1, 4.0, "pcie-stall");
  sink.record(30, EventKind::kComplete, 1, -1, 1.0);

  std::stringstream buf;
  sink.export_binary(buf);
  const TraceSink loaded = TraceSink::import_binary(buf);

  ASSERT_EQ(loaded.size(), sink.size());
  EXPECT_EQ(loaded.events(), sink.events());
  EXPECT_EQ(loaded.strings(), sink.strings());
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    EXPECT_EQ(loaded.count(static_cast<EventKind>(k)),
              sink.count(static_cast<EventKind>(k)));
  }
  // The loaded sink's intern table is live, not just a dead copy.
  TraceSink copy = loaded;
  EXPECT_EQ(copy.intern("pcie-stall"),
            sink.events()[2].detail);
}

TEST(TraceSink, ImportRejectsMalformedStreams) {
  std::stringstream bad_magic("NOTATRACE_______________");
  EXPECT_THROW((void)TraceSink::import_binary(bad_magic), std::runtime_error);

  // Truncate a valid stream mid-events.
  TraceSink sink;
  sink.record(1, EventKind::kPlace, 0, 0, 1.0);
  std::stringstream buf;
  sink.export_binary(buf);
  const std::string whole = buf.str();
  std::stringstream truncated(whole.substr(0, whole.size() / 2));
  EXPECT_THROW((void)TraceSink::import_binary(truncated), std::runtime_error);
}

/// Appends `v` as a `width`-byte little-endian field (the KNOBTRC1 layout).
void put_field(std::string& out, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

TEST(TraceSink, ImportOfHugeEventCountThrowsRuntimeError) {
  // 16 bytes claiming 2^60 and 2^33 events: neither may be sized up front
  // (std::length_error / std::bad_alloc); both are plain truncation.
  for (const std::uint64_t count :
       {std::uint64_t{1} << 60, std::uint64_t{1} << 33}) {
    std::string bytes("KNOBTRC1");
    put_field(bytes, count, 8);
    ASSERT_EQ(bytes.size(), 16u);
    std::stringstream in(bytes);
    EXPECT_THROW((void)TraceSink::import_binary(in), std::runtime_error)
        << count;
  }
}

TEST(TraceSink, ImportOfHugeStringLengthThrowsRuntimeError) {
  // Zero events, two strings: "" then one claiming 4 GiB - 1 bytes backed
  // by only a handful.
  std::string bytes("KNOBTRC1");
  put_field(bytes, 0, 8);
  put_field(bytes, 2, 8);
  put_field(bytes, 0, 4);
  put_field(bytes, 0xffffffffU, 4);
  bytes += "short";
  std::stringstream in(bytes);
  EXPECT_THROW((void)TraceSink::import_binary(in), std::runtime_error);
}

TEST(TraceSink, ImportReadsLongStringsAcrossChunks) {
  // A detail longer than the loader's read chunk still round-trips.
  TraceSink sink;
  const std::string long_detail(200000, 'x');
  sink.record(5, EventKind::kDecision, 1, 2, 3.0, long_detail);
  std::stringstream buf;
  sink.export_binary(buf);
  const TraceSink loaded = TraceSink::import_binary(buf);
  EXPECT_EQ(loaded.events(), sink.events());
  EXPECT_EQ(loaded.strings(), sink.strings());
  EXPECT_EQ(loaded.detail(loaded.events()[0].detail), long_detail);
}

TEST(TraceSink, EventKindNamesAreUniqueAndNonEmpty) {
  std::set<std::string_view> names;
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    const auto name = to_string(static_cast<EventKind>(k));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "unknown");
    names.insert(name);
  }
  EXPECT_EQ(names.size(), kEventKindCount);
}

}  // namespace
}  // namespace knots::obs
