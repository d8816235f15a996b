#pragma once
// Streaming statistics used by the load-balance database, the
// benchmark harnesses, and the tests that assert distributional bounds.

#include <cstddef>

namespace mdo {

/// Welford's online mean/variance plus min/max. O(1) space.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void reset();

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const;  // sample variance (n-1)
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

}  // namespace mdo
