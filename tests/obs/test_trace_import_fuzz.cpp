// Seeded mutation fuzz of TraceSink::import_binary.
//
// The loader reads files from outside the program, and its contract is:
// import, or throw std::runtime_error — never another exception type, a
// crash, or an allocation sized from an unchecked header field. Starting
// from a valid KNOBTRC1 export, this suite feeds the loader thousands of
// mutants: random bit flips, truncations, and the event count, string
// count and string lengths overwritten with boundary values. Under the
// ASan/UBSan build (ctest -L obs) any out-of-bounds access or oversized
// allocation fails the run as well.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/rng.hpp"
#include "obs/trace.hpp"

namespace knots::obs {
namespace {

/// Bytes per event record: ts i64, kind u8, a i32, b i32, value f64,
/// detail u32.
constexpr std::size_t kEventBytes = 8 + 1 + 4 + 4 + 8 + 4;
constexpr std::size_t kHeaderBytes = 8 + 8;  // magic + event count

TraceSink seed_sink() {
  TraceSink sink;
  sink.record(0, EventKind::kSubmit, 1);
  sink.record(10, EventKind::kPlace, 1, 0, 768.5, "resag:random-feasible");
  sink.record(20, EventKind::kFaultInject, 2, -1, 4.0, "pcie-stall");
  sink.record(25, EventKind::kDecision, 3, -1, 0.0, std::string(300, 'd'));
  sink.record(30, EventKind::kComplete, 1, -1, 1.0);
  sink.record(40, EventKind::kLinkDown, 5, -1, 0.0, "spine");
  return sink;
}

/// Offsets of every length-like field in a valid export: the event count,
/// the string count, and each string's length.
struct Layout {
  std::size_t event_count = 8;
  std::size_t string_count = 0;
  std::vector<std::size_t> string_lengths;
};

Layout layout_of(const TraceSink& sink) {
  Layout l;
  l.string_count = kHeaderBytes + kEventBytes * sink.size();
  std::size_t at = l.string_count + 8;
  for (const auto& s : sink.strings()) {
    l.string_lengths.push_back(at);
    at += 4 + s.size();
  }
  return l;
}

void put_field(std::string& bytes, std::size_t at, std::uint64_t v,
               int width) {
  for (int i = 0; i < width && at + static_cast<std::size_t>(i) < bytes.size();
       ++i) {
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

/// Boundary values for an overwritten count or length field.
std::uint64_t hostile_value(Rng& rng, std::uint64_t truth) {
  constexpr std::uint64_t kValues[] = {
      0,
      1,
      0x7f,
      0xffff,
      0x7fffffffULL,
      0xffffffffULL,
      std::uint64_t{1} << 32,
      std::uint64_t{1} << 33,
      std::uint64_t{1} << 60,
      std::numeric_limits<std::uint64_t>::max(),
  };
  switch (rng.uniform_int(0, 3)) {
    case 0: return truth + 1;
    case 1: return truth - 1;  // wraps to the maximum for a zero field
    case 2: return rng.engine()();
    default:
      return kValues[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(std::size(kValues)) - 1))];
  }
}

std::string mutate(const std::string& base, const Layout& layout,
                   const TraceSink& sink, Rng& rng, int kind) {
  std::string m = base;
  switch (kind) {
    case 0: {  // 1–8 bit flips anywhere
      const auto flips = rng.uniform_int(1, 8);
      for (std::int64_t f = 0; f < flips; ++f) {
        const auto bit = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(m.size() * 8) - 1));
        m[bit / 8] = static_cast<char>(m[bit / 8] ^ (1 << (bit % 8)));
      }
      break;
    }
    case 1:  // truncation, header included
      m.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(m.size()) - 1)));
      break;
    case 2:  // event count
      put_field(m, layout.event_count, hostile_value(rng, sink.size()), 8);
      break;
    default: {  // string count, or one string's length
      const auto pick = rng.uniform_int(
          0, static_cast<std::int64_t>(layout.string_lengths.size()));
      if (pick == 0) {
        put_field(m, layout.string_count,
                  hostile_value(rng, sink.strings().size()), 8);
      } else {
        const auto idx = static_cast<std::size_t>(pick - 1);
        put_field(m, layout.string_lengths[idx],
                  hostile_value(rng, sink.strings()[idx].size()), 4);
      }
      // Half of these also lose their tail, so a lying length meets both
      // a short and a long remainder.
      if (rng.chance(0.5)) {
        m.resize(static_cast<std::size_t>(rng.uniform_int(
            static_cast<std::int64_t>(kHeaderBytes),
            static_cast<std::int64_t>(m.size()) - 1)));
      }
      break;
    }
  }
  return m;
}

TEST(TraceImportFuzz, EveryMutantImportsOrThrowsRuntimeError) {
  const TraceSink sink = seed_sink();
  std::stringstream out;
  sink.export_binary(out);
  const std::string base = out.str();
  const Layout layout = layout_of(sink);
  // The offsets above are the KNOBTRC1 layout; a format change must update
  // them, not silently fuzz the wrong bytes.
  ASSERT_EQ(layout.string_lengths.back() + 4 + sink.strings().back().size(),
            base.size());

  constexpr int kMutants = 4000;
  Rng rng(0x5eed7ace);
  int imported = 0;
  int rejected = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string mutant = mutate(base, layout, sink, rng, i % 4);
    std::stringstream in(mutant);
    std::optional<TraceSink> loaded;
    try {
      loaded = TraceSink::import_binary(in);
    } catch (const std::runtime_error&) {
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      FAIL() << "mutant " << i << " (kind " << i % 4 << ") threw "
             << typeid(e).name() << ": " << e.what();
    }
    ++imported;
    // An accepted mutant is a coherent sink: every detail resolves and it
    // round-trips through the exporter.
    for (const auto& e : loaded->events()) {
      ASSERT_LT(e.detail, loaded->strings().size()) << "mutant " << i;
    }
    std::stringstream again;
    loaded->export_binary(again);
    const TraceSink reloaded = TraceSink::import_binary(again);
    ASSERT_EQ(reloaded.events(), loaded->events()) << "mutant " << i;
    ASSERT_EQ(reloaded.strings(), loaded->strings()) << "mutant " << i;
  }
  // Both outcomes occur: the fuzz is neither all-garbage nor all-benign.
  EXPECT_GT(imported, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(imported + rejected, kMutants);
}

}  // namespace
}  // namespace knots::obs
