// Reduction operators for mpisim collectives, like MPI_SUM / MPI_MIN / ...
// Any binary functor works; these named ones cover the common cases and are
// what the YGM layer and applications use.
#pragma once

#include <algorithm>

namespace ygm::mpisim {

struct op_sum {
  template <class T>
  T operator()(const T& a, const T& b) const {
    return a + b;
  }
};

struct op_min {
  template <class T>
  T operator()(const T& a, const T& b) const {
    return std::min(a, b);
  }
};

struct op_max {
  template <class T>
  T operator()(const T& a, const T& b) const {
    return std::max(a, b);
  }
};

struct op_land {
  template <class T>
  T operator()(const T& a, const T& b) const {
    return static_cast<T>(a && b);
  }
};

struct op_lor {
  template <class T>
  T operator()(const T& a, const T& b) const {
    return static_cast<T>(a || b);
  }
};

struct op_bor {
  template <class T>
  T operator()(const T& a, const T& b) const {
    return static_cast<T>(a | b);
  }
};

}  // namespace ygm::mpisim
