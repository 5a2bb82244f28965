// Online moment accumulation (Welford / Pébay update formulas).
//
// Numerically stable single-pass mean/variance/skewness/kurtosis with O(1)
// state, plus min/max. Supports merging two accumulators (parallel batch
// reduction) via the pairwise update. Used for every scalar metric the
// simulations report. MeanVar keeps only the count, mean and M2 of the
// same update, for per-event accumulators whose readers need no more.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace probemon::stats {

class Welford {
 public:
  void add(double x) noexcept {
    const double n1 = static_cast<double>(n_);
    ++n_;
    const double n = static_cast<double>(n_);
    const double delta = x - m1_;
    const double delta_n = delta / n;
    const double delta_n2 = delta_n * delta_n;
    const double term1 = delta * delta_n * n1;
    m1_ += delta_n;
    m4_ += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) +
           6.0 * delta_n2 * m2_ - 4.0 * delta_n * m3_;
    m3_ += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * m2_;
    m2_ += term1;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  /// Merge another accumulator into this one (Pébay's formulas).
  void merge(const Welford& other) noexcept {
    if (other.n_ == 0) return;
    if (n_ == 0) {
      *this = other;
      return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(other.n_);
    const double n = na + nb;
    const double delta = other.m1_ - m1_;
    const double delta2 = delta * delta;
    const double delta3 = delta2 * delta;
    const double delta4 = delta2 * delta2;

    const double m1 = (na * m1_ + nb * other.m1_) / n;
    const double m2 = m2_ + other.m2_ + delta2 * na * nb / n;
    const double m3 = m3_ + other.m3_ +
                      delta3 * na * nb * (na - nb) / (n * n) +
                      3.0 * delta * (na * other.m2_ - nb * m2_) / n;
    const double m4 =
        m4_ + other.m4_ +
        delta4 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n) +
        6.0 * delta2 * (na * na * other.m2_ + nb * nb * m2_) / (n * n) +
        4.0 * delta * (na * other.m3_ - nb * m3_) / n;

    n_ += other.n_;
    m1_ = m1;
    m2_ = m2;
    m3_ = m3;
    m4_ = m4;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  std::uint64_t count() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }

  double mean() const noexcept {
    return n_ ? m1_ : std::numeric_limits<double>::quiet_NaN();
  }
  /// Sample (Bessel-corrected) variance.
  double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1)
                  : std::numeric_limits<double>::quiet_NaN();
  }
  /// Population variance (divide by n).
  double population_variance() const noexcept {
    return n_ > 0 ? m2_ / static_cast<double>(n_)
                  : std::numeric_limits<double>::quiet_NaN();
  }
  double stddev() const noexcept { return std::sqrt(variance()); }

  double skewness() const noexcept {
    if (n_ < 2 || m2_ <= 0) return std::numeric_limits<double>::quiet_NaN();
    const double n = static_cast<double>(n_);
    return std::sqrt(n) * m3_ / std::pow(m2_, 1.5);
  }
  /// Excess kurtosis.
  double kurtosis() const noexcept {
    if (n_ < 2 || m2_ <= 0) return std::numeric_limits<double>::quiet_NaN();
    const double n = static_cast<double>(n_);
    return n * m4_ / (m2_ * m2_) - 3.0;
  }

  double min() const noexcept {
    return n_ ? min_ : std::numeric_limits<double>::quiet_NaN();
  }
  double max() const noexcept {
    return n_ ? max_ : std::numeric_limits<double>::quiet_NaN();
  }

  void reset() noexcept { *this = Welford{}; }

 private:
  std::uint64_t n_ = 0;
  double m1_ = 0, m2_ = 0, m3_ = 0, m4_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Count, mean and variance only: Welford::add's own m1/m2 lines,
/// without its m3/m4, min and max, so mean() and variance() are
/// bit-identical to a Welford fed the same stream.
class MeanVar {
 public:
  void add(double x) noexcept {
    const double n1 = static_cast<double>(n_);
    ++n_;
    const double delta = x - m1_;
    const double delta_n = delta / static_cast<double>(n_);
    m1_ += delta_n;
    m2_ += delta * delta_n * n1;
  }

  std::uint64_t count() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }
  double mean() const noexcept {
    return n_ ? m1_ : std::numeric_limits<double>::quiet_NaN();
  }
  /// Sample (Bessel-corrected) variance.
  double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1)
                  : std::numeric_limits<double>::quiet_NaN();
  }

 private:
  std::uint64_t n_ = 0;
  double m1_ = 0, m2_ = 0;
};

}  // namespace probemon::stats
