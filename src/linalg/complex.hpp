// Complex scalar and vector aliases for small-signal (AC) results.  The AC
// solve itself runs in real block form on linalg::SparseLu
// (spice/ac.hpp); nothing here factors a matrix.
#ifndef VSSTAT_LINALG_COMPLEX_HPP
#define VSSTAT_LINALG_COMPLEX_HPP

#include <complex>
#include <vector>

namespace vsstat::linalg {

using Complex = std::complex<double>;
using ComplexVector = std::vector<Complex>;

}  // namespace vsstat::linalg

#endif  // VSSTAT_LINALG_COMPLEX_HPP
