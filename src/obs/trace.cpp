#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>

namespace knots::obs {

namespace {

constexpr char kBinaryMagic[8] = {'K', 'N', 'O', 'B', 'T', 'R', 'C', '1'};

// -- little-endian encode/decode helpers (portable binary form) --

template <typename T>
void put_le(std::ostream& os, T v) {
  static_assert(std::is_integral_v<T>);
  unsigned char buf[sizeof(T)];
  auto u = static_cast<std::make_unsigned_t<T>>(v);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    buf[i] = static_cast<unsigned char>(u >> (8 * i));
  }
  os.write(reinterpret_cast<const char*>(buf), sizeof(T));
}

template <typename T>
T get_le(std::istream& is) {
  static_assert(std::is_integral_v<T>);
  unsigned char buf[sizeof(T)];
  if (!is.read(reinterpret_cast<char*>(buf), sizeof(T))) {
    throw std::runtime_error("trace binary: truncated stream");
  }
  std::make_unsigned_t<T> u = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    u |= static_cast<std::make_unsigned_t<T>>(buf[i]) << (8 * i);
  }
  return static_cast<T>(u);
}

void put_double(std::ostream& os, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_le(os, bits);
}

double get_double(std::istream& is) {
  const std::uint64_t bits = get_le<std::uint64_t>(is);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Reads a `len`-byte string in bounded chunks, so a corrupt length costs
/// at most one chunk past the bytes the stream really holds.
std::string get_string(std::istream& is, std::uint32_t len) {
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  std::string s;
  for (std::size_t left = len; left > 0;) {
    const std::size_t take = std::min(left, kChunk);
    const std::size_t at = s.size();
    s.resize(at + take);
    if (!is.read(s.data() + at, static_cast<std::streamsize>(take))) {
      throw std::runtime_error("trace binary: truncated string table");
    }
    left -= take;
  }
  return s;
}

// JSON string escaping for detail strings and names.
void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

std::string_view to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kSubmit: return "submit";
    case EventKind::kPlace: return "place";
    case EventKind::kStart: return "start";
    case EventKind::kComplete: return "complete";
    case EventKind::kCrash: return "crash";
    case EventKind::kRequeue: return "requeue";
    case EventKind::kEvict: return "evict";
    case EventKind::kResize: return "resize";
    case EventKind::kPark: return "park";
    case EventKind::kNodeDown: return "node-down";
    case EventKind::kNodeUp: return "node-up";
    case EventKind::kFaultInject: return "fault-inject";
    case EventKind::kFaultRecover: return "fault-recover";
    case EventKind::kScrape: return "telemetry-scrape";
    case EventKind::kDecision: return "decision";
    case EventKind::kRequestArrive: return "serve.arrive";
    case EventKind::kRequestShed: return "serve.shed";
    case EventKind::kRequestExpire: return "serve.expire";
    case EventKind::kBatchDispatch: return "serve.batch";
    case EventKind::kRequestDone: return "serve.done";
    case EventKind::kScaleUp: return "serve.scale-up";
    case EventKind::kScaleDown: return "serve.scale-down";
    case EventKind::kFlowStart: return "net.flow-start";
    case EventKind::kFlowFinish: return "net.flow-finish";
    case EventKind::kLinkDown: return "net.link-down";
    case EventKind::kLinkUp: return "net.link-up";
  }
  return "unknown";
}

TraceSink::TraceSink() { strings_.emplace_back(); }

void TraceSink::record(SimTime ts, EventKind kind, std::int32_t a,
                       std::int32_t b, double value,
                       std::string_view detail) {
  TraceEvent e;
  e.ts = ts;
  e.kind = kind;
  e.a = a;
  e.b = b;
  e.value = value;
  e.detail = detail.empty() ? 0u : intern(detail);
  events_.push_back(e);
  ++counts_[static_cast<std::size_t>(kind)];
}

std::uint32_t TraceSink::intern(std::string_view s) {
  if (s.empty()) return 0;
  const auto [it, inserted] = intern_index_.try_emplace(
      std::string(s), static_cast<std::uint32_t>(strings_.size()));
  if (inserted) strings_.emplace_back(it->first);
  return it->second;
}

const std::string& TraceSink::detail(std::uint32_t index) const noexcept {
  if (index >= strings_.size()) return strings_[0];
  return strings_[index];
}

void TraceSink::clear() {
  events_.clear();
  strings_.resize(1);
  intern_index_.clear();
  counts_.fill(0);
}

void TraceSink::export_binary(std::ostream& os) const {
  os.write(kBinaryMagic, sizeof(kBinaryMagic));
  put_le(os, static_cast<std::uint64_t>(events_.size()));
  for (const auto& e : events_) {
    put_le(os, static_cast<std::int64_t>(e.ts));
    put_le(os, static_cast<std::uint8_t>(e.kind));
    put_le(os, e.a);
    put_le(os, e.b);
    put_double(os, e.value);
    put_le(os, e.detail);
  }
  put_le(os, static_cast<std::uint64_t>(strings_.size()));
  for (const auto& s : strings_) {
    put_le(os, static_cast<std::uint32_t>(s.size()));
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
  }
}

TraceSink TraceSink::import_binary(std::istream& is) {
  char magic[sizeof(kBinaryMagic)];
  if (!is.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kBinaryMagic, sizeof(magic)) != 0) {
    throw std::runtime_error("trace binary: bad magic");
  }
  TraceSink sink;
  // Counts and lengths come from the stream, so nothing is sized from them
  // up front: containers grow only as records actually arrive, and a
  // truncated or lying header fails with runtime_error at its first
  // missing byte instead of a huge allocation.
  const auto count = get_le<std::uint64_t>(is);
  for (std::uint64_t i = 0; i < count; ++i) {
    TraceEvent e;
    e.ts = get_le<std::int64_t>(is);
    const auto kind = get_le<std::uint8_t>(is);
    if (kind >= kEventKindCount) {
      throw std::runtime_error("trace binary: unknown event kind");
    }
    e.kind = static_cast<EventKind>(kind);
    e.a = get_le<std::int32_t>(is);
    e.b = get_le<std::int32_t>(is);
    e.value = get_double(is);
    e.detail = get_le<std::uint32_t>(is);
    sink.events_.push_back(e);
    ++sink.counts_[kind];
  }
  const auto nstrings = get_le<std::uint64_t>(is);
  if (nstrings == 0) throw std::runtime_error("trace binary: no string table");
  sink.strings_.clear();
  for (std::uint64_t i = 0; i < nstrings; ++i) {
    sink.strings_.push_back(get_string(is, get_le<std::uint32_t>(is)));
  }
  for (const auto& e : sink.events_) {
    if (e.detail >= sink.strings_.size()) {
      throw std::runtime_error("trace binary: detail index out of range");
    }
  }
  for (std::size_t i = 1; i < sink.strings_.size(); ++i) {
    sink.intern_index_.emplace(sink.strings_[i],
                               static_cast<std::uint32_t>(i));
  }
  return sink;
}

void TraceSink::export_chrome_trace(std::ostream& os) const {
  // Track layout: pid 0 = cluster-wide instants (decisions, faults,
  // scrapes), pid 1 = per-pod lifecycle slices (tid = pod id), pid 2 =
  // per-node outage slices (tid = node id).
  os << "{\"traceEvents\":[";
  bool first = true;
  const auto emit_common = [&](std::string_view name, const char* ph,
                               SimTime ts, int pid, std::int32_t tid) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":";
    write_json_string(os, name);
    os << ",\"ph\":\"" << ph << "\",\"ts\":" << ts << ",\"pid\":" << pid
       << ",\"tid\":" << tid;
  };

  // Pass 1: every event as an instant on the cluster track, with args.
  for (const auto& e : events_) {
    emit_common(to_string(e.kind), "i", e.ts, 0, 0);
    os << ",\"s\":\"p\",\"args\":{";
    bool first_arg = true;
    const auto arg = [&](const char* key, auto&& write_value) {
      if (!first_arg) os << ",";
      first_arg = false;
      os << "\"" << key << "\":";
      write_value();
    };
    if (e.a >= 0) arg("a", [&] { os << e.a; });
    if (e.b >= 0) arg("b", [&] { os << e.b; });
    if (e.value != 0.0) arg("value", [&] { os << e.value; });
    if (e.detail != 0) {
      arg("detail", [&] { write_json_string(os, detail(e.detail)); });
    }
    os << "}}";
  }

  // Pass 2: derived per-pod lifecycle slices. A pod walks
  // submit → place (pending) → start (starting) → complete/crash/evict
  // (running), and crash/evict → requeue (relaunch-wait) → place again.
  struct PodPhase {
    SimTime since = -1;
    const char* name = nullptr;
  };
  std::unordered_map<std::int32_t, PodPhase> pods;
  const auto close_phase = [&](std::int32_t pod, SimTime ts,
                               const char* next) {
    auto& phase = pods[pod];
    if (phase.name != nullptr && ts >= phase.since) {
      emit_common(phase.name, "X", phase.since, 1, pod);
      os << ",\"dur\":" << (ts - phase.since) << "}";
    }
    phase.since = ts;
    phase.name = next;
  };
  for (const auto& e : events_) {
    switch (e.kind) {
      case EventKind::kSubmit: close_phase(e.a, e.ts, "pending"); break;
      case EventKind::kPlace: close_phase(e.a, e.ts, "starting"); break;
      case EventKind::kStart: close_phase(e.a, e.ts, "running"); break;
      case EventKind::kComplete: close_phase(e.a, e.ts, nullptr); break;
      case EventKind::kCrash:
      case EventKind::kEvict: close_phase(e.a, e.ts, "relaunch-wait"); break;
      case EventKind::kRequeue: close_phase(e.a, e.ts, "pending"); break;
      default: break;
    }
  }

  // Pass 3: per-node outage slices.
  std::unordered_map<std::int32_t, SimTime> down_since;
  for (const auto& e : events_) {
    if (e.kind == EventKind::kNodeDown) {
      down_since[e.a] = e.ts;
    } else if (e.kind == EventKind::kNodeUp) {
      const auto it = down_since.find(e.a);
      if (it != down_since.end()) {
        emit_common("node down", "X", it->second, 2, e.a);
        os << ",\"dur\":" << (e.ts - it->second) << "}";
        down_since.erase(it);
      }
    }
  }

  os << "\n]}\n";
}

}  // namespace knots::obs
