// Online statistics: Welford mean/variance, min/max tracking, pairwise
// correlation accumulation, and binomial confidence intervals for yields.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "util/assert.h"

namespace clktune::util {

/// Numerically stable running mean / variance / extremes (Welford).
class OnlineStats {
 public:
  /// Out of line, like merge: every caller then runs one compiled rounding
  /// sequence, so a statistic recomputed elsewhere (a test's reference, a
  /// bench) matches bit for bit even where the compiler is free to fuse a
  /// multiply-add at one inlining site and not at another.
  void add(double x);

  /// Merge another accumulator (parallel reduction), Chan et al. update.
  void merge(const OnlineStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Pearson correlation over a streamed sequence of (x, y) pairs.
class OnlineCorrelation {
 public:
  void add(double x, double y) {
    ++n_;
    const double inv = 1.0 / static_cast<double>(n_);
    const double dx = x - mean_x_;
    const double dy = y - mean_y_;
    mean_x_ += dx * inv;
    mean_y_ += dy * inv;
    m2x_ += dx * (x - mean_x_);
    m2y_ += dy * (y - mean_y_);
    cxy_ += dx * (y - mean_y_);
  }

  std::size_t count() const { return n_; }

  /// Returns 0 when either variable is (numerically) constant.
  double correlation() const {
    const double denom = std::sqrt(m2x_ * m2y_);
    if (denom <= 1e-300) return 0.0;
    return cxy_ / denom;
  }

 private:
  std::size_t n_ = 0;
  double mean_x_ = 0.0, mean_y_ = 0.0;
  double m2x_ = 0.0, m2y_ = 0.0, cxy_ = 0.0;
};

/// Symmetric pairwise-correlation accumulator over a fixed set of K series.
class CorrelationMatrix {
 public:
  explicit CorrelationMatrix(std::size_t k) : k_(k), cells_(k * k) {}

  /// Feed one joint observation (vector of length k).
  void add(std::span<const double> obs) {
    CLKTUNE_EXPECTS(obs.size() == k_);
    for (std::size_t i = 0; i < k_; ++i)
      for (std::size_t j = i; j < k_; ++j) cell(i, j).add(obs[i], obs[j]);
  }

  double correlation(std::size_t i, std::size_t j) const {
    if (i > j) std::swap(i, j);
    return cells_[i * k_ + j].correlation();
  }

  std::size_t size() const { return k_; }

 private:
  OnlineCorrelation& cell(std::size_t i, std::size_t j) {
    return cells_[i * k_ + j];
  }

  std::size_t k_;
  std::vector<OnlineCorrelation> cells_;
};

/// Normal-approximation half-width of a 95 % confidence interval for a
/// binomial proportion estimated from n trials.
inline double yield_ci95(double p, std::size_t n) {
  if (n == 0) return 1.0;
  return 1.96 * std::sqrt(p * (1.0 - p) / static_cast<double>(n));
}

/// Pearson correlation of two equal-length vectors (convenience).
double correlation(std::span<const double> a, std::span<const double> b);

/// Arithmetic mean; 0 for an empty range.
double mean(std::span<const double> v);

}  // namespace clktune::util
