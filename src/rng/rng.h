// Seeded pseudo-random number generation and the samplers used by the
// privacy mechanisms. All randomness in the library flows through Rng
// so experiments are reproducible from a single seed.

#ifndef BLOWFISH_RNG_RNG_H_
#define BLOWFISH_RNG_RNG_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/check.h"

namespace blowfish {

namespace rng_internal {

/// Ziggurat tables for the rate-1 exponential (Marsaglia & Tsang, 256
/// layers). The serving layer draws one Laplace variate per released
/// histogram cell — tens of thousands per second — so the common case
/// must be one generator word plus a table compare, not a log().
/// Layer widths are scaled by 2^-53 so a 53-bit uniform times we[i]
/// lands inside layer i.
struct ExpZigguratTables {
  static constexpr double kTailStart = 7.69711747013104972;
  uint64_t ke[256];
  double we[256];
  double fe[256];
  ExpZigguratTables() {
    const double m = 9007199254740992.0;  // 2^53
    double de = kTailStart;
    double te = kTailStart;
    const double ve = 3.949659822581572e-3;  // common layer area
    const double q = ve / std::exp(-de);
    ke[0] = static_cast<uint64_t>((de / q) * m);
    ke[1] = 0;
    we[0] = q / m;
    we[255] = de / m;
    fe[0] = 1.0;
    fe[255] = std::exp(-de);
    for (int i = 254; i >= 1; --i) {
      de = -std::log(ve / de + std::exp(-de));
      ke[i + 1] = static_cast<uint64_t>((de / te) * m);
      te = de;
      fe[i] = std::exp(-de);
      we[i] = de / m;
    }
  }
};

inline const ExpZigguratTables kExpZig;

}  // namespace rng_internal

/// \brief Deterministic random source with the samplers needed by
/// differentially private mechanisms.
///
/// The generator is xoshiro256++ seeded through splitmix64: pure
/// 64-bit integer arithmetic, so the word stream is identical on
/// every platform, construction is four multiplies (the engine builds
/// one private stream per submit — a heavy-state generator would pay
/// its seeding cost on every query), and it passes the usual
/// statistical batteries. Uniform doubles take the top 53 bits of one
/// word; Laplace(b) draws ±b·Exponential(1) through the ziggurat
/// above, falling back to the exact wedge/tail computation on ~2% of
/// draws.
class Rng {
 public:
  /// One 64-bit word of hardware/system entropy, for seeding engines
  /// whose options did not pin a seed. This is the ONLY sanctioned
  /// nondeterminism source in the library: dp_lint's `rng-discipline`
  /// rule bans std::random_device (and every <random> engine) outside
  /// src/rng/, so callers wanting a fresh seed must come through here.
  static uint64_t EntropySeed();

  /// Constructs a generator from a 64-bit seed. The same seed always
  /// yields the same stream on every platform.
  explicit Rng(uint64_t seed = 0xB10F15Dull) {
    // splitmix64 expansion: decorrelates consecutive seeds and never
    // produces the all-zero xoshiro state.
    uint64_t z = seed;
    for (uint64_t& word : state_) {
      z += 0x9E3779B97F4A7C15ull;
      uint64_t t = z;
      t = (t ^ (t >> 30)) * 0xBF58476D1CE4E5B9ull;
      t = (t ^ (t >> 27)) * 0x94D049BB133111EBull;
      word = t ^ (t >> 31);
    }
  }

  /// UniformRandomBitGenerator protocol (std::shuffle interop and the
  /// raw word source for every sampler): xoshiro256++.
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }
  result_type operator()() {
    const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform real in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    const double u = static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    return lo + (hi - lo) * u;
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Laplace(0, scale) draw; Var = 2*scale^2. One generator word on
  /// the ziggurat's common path: bits 0..7 pick the layer, bit 8 the
  /// sign, bits 11..63 the 53-bit uniform (all disjoint). The sign is
  /// branch-free: a clear bit 8 is moved to the IEEE sign bit of
  /// scale·magnitude, so the fair coin costs no mispredicted branch.
  /// Rounding is symmetric, so -(scale·m) == (-scale)·m bit for bit.
  double Laplace(double scale) {
    BF_CHECK_GT(scale, 0.0);
    const uint64_t word = (*this)();
    const uint64_t jz = word >> 11;
    const size_t iz = word & 255u;
    const double magnitude =
        scale * (jz < rng_internal::kExpZig.ke[iz]
                     ? static_cast<double>(jz) * rng_internal::kExpZig.we[iz]
                     : ExponentialZigguratSlow(word));
    uint64_t bits;
    std::memcpy(&bits, &magnitude, sizeof bits);
    bits ^= (~word & 0x100u) << 55;
    double draw;
    std::memcpy(&draw, &bits, sizeof draw);
    return draw;
  }

  /// Vector of n iid Laplace(0, scale) draws.
  std::vector<double> LaplaceVector(size_t n, double scale);

  /// Standard normal draw.
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// Exponential(rate) draw (mean 1/rate).
  double Exponential(double rate);

  /// Samples an index from unnormalized non-negative weights.
  /// Weights must not all be zero.
  size_t Categorical(const std::vector<double>& weights);

  /// Derives an independent child generator; used to hand disjoint
  /// streams to parallel composition branches without correlation.
  Rng Fork();

  /// Underlying engine access for std::shuffle interop (Rng is itself
  /// the UniformRandomBitGenerator).
  Rng& engine() { return *this; }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  /// Wedge/tail/retry continuation of the ziggurat, entered on ~2% of
  /// draws with the word that failed the fast test.
  double ExponentialZigguratSlow(uint64_t word);

  uint64_t state_[4];
};

}  // namespace blowfish

#endif  // BLOWFISH_RNG_RNG_H_
