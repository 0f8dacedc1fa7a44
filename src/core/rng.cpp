#include "core/rng.hpp"

#include <cmath>
#include <numbers>

#include "core/check.hpp"

namespace knots {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Xoshiro256::result_type Xoshiro256::operator()() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Rng Rng::fork(std::uint64_t stream) const noexcept {
  std::uint64_t mix = root_seed_ ^ (stream * 0x9e3779b97f4a7c15ull + 0x1234567);
  std::uint64_t derived = splitmix64(mix);
  Rng child(derived);
  child.root_seed_ = derived;
  return child;
}

double Rng::uniform() noexcept {
  // 53-bit mantissa construction: uniform in [0, 1).
  return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  KNOTS_CHECK(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(engine_());  // full range
  // Rejection-free modulo is fine here: span << 2^64 for all our uses.
  return lo + static_cast<std::int64_t>(engine_() % span);
}

double Rng::exponential(double mean) noexcept {
  KNOTS_CHECK(mean > 0);
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

Rng::UniformPair Rng::box_muller_uniforms() noexcept {
  double u1;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  return {u1, u2};
}

double Rng::normal(double mean, double stddev) noexcept {
  // Box–Muller; we draw two uniforms and discard the second variate to keep
  // per-call determinism independent of interleaving.
  const auto [u1, u2] = box_muller_uniforms();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * std::numbers::pi * u2);
}

void Rng::skip_normal() noexcept { (void)box_muller_uniforms(); }

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

double Rng::pareto(double alpha, double lo, double hi) noexcept {
  KNOTS_CHECK(alpha > 0 && lo > 0 && hi > lo);
  const double u = uniform();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  const double x = std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
  return x;
}

bool Rng::chance(double p) noexcept { return uniform() < p; }

std::size_t Rng::weighted_index(const std::vector<double>& weights) noexcept {
  KNOTS_CHECK(!weights.empty());
  double total = 0;
  for (double w : weights) total += w;
  double pick = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    pick -= weights[i];
    if (pick <= 0) return i;
  }
  return weights.size() - 1;
}

}  // namespace knots
