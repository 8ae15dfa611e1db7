#pragma once

// Electromagnetic field and moment arrays of one rank's block.
//
// 2.5D layout: fields depend on (x, y) but keep all three vector
// components, the standard reduced geometry for implicit-moment PIC
// (Markidis et al., the paper's ref [15]).

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "xpic/grid.hpp"

namespace cbsim::xpic {

struct FieldArrays {
  Field2D ex, ey, ez;   ///< electric field E^n
  Field2D bx, by, bz;   ///< magnetic field B^n
  Field2D rho;          ///< charge density (gathered moment)
  Field2D jx, jy, jz;   ///< current density (gathered moments)
  Field2D chi;          ///< implicit susceptibility, cell-centered

  explicit FieldArrays(const Grid2D& g)
      : ex(g.lnx(), g.lny()), ey(g.lnx(), g.lny()), ez(g.lnx(), g.lny()),
        bx(g.lnx(), g.lny()), by(g.lnx(), g.lny()), bz(g.lnx(), g.lny()),
        rho(g.lnx(), g.lny()), jx(g.lnx(), g.lny()), jy(g.lnx(), g.lny()),
        jz(g.lnx(), g.lny()), chi(g.lnx(), g.lny()) {}

  /// Doubles per padded cell of the particle kernels' interleaved blocks:
  /// [ex ey ez bx by bz] for the mover, [rho jx jy jz chi] for deposition.
  static constexpr std::size_t kEMStride = 6;
  static constexpr std::size_t kMomentStride = 5;

  /// Writes E and B interleaved per padded cell (ghosts included) into
  /// `block` (resized to kEMStride * padded cells; reuse it across calls).
  void interleaveEM(std::vector<double>& block) const {
    const std::array<const Field2D*, kEMStride> fs = {&ex, &ey, &ez,
                                                      &bx, &by, &bz};
    const std::size_t cells = ex.raw().size();
    block.resize(kEMStride * cells);
    for (std::size_t c = 0; c < cells; ++c) {
      for (std::size_t k = 0; k < kEMStride; ++k) {
        block[kEMStride * c + k] = fs[k]->raw()[c];
      }
    }
  }

  /// Overwrites every padded cell of the moment fields from an interleaved
  /// [rho jx jy jz chi] block.
  void storeMoments(std::span<const double> block) {
    const std::array<Field2D*, kMomentStride> fs = momentFields();
    const std::size_t cells = rho.raw().size();
    for (std::size_t c = 0; c < cells; ++c) {
      for (std::size_t k = 0; k < kMomentStride; ++k) {
        fs[k]->raw()[c] = block[kMomentStride * c + k];
      }
    }
  }

  /// Local (interior) electromagnetic energy, 0.5 * sum(E^2 + B^2) dV.
  [[nodiscard]] double localFieldEnergy(double dV) const {
    double s = 0.0;
    for (int j = 1; j <= ex.lny(); ++j) {
      for (int i = 1; i <= ex.lnx(); ++i) {
        s += ex.at(i, j) * ex.at(i, j) + ey.at(i, j) * ey.at(i, j) +
             ez.at(i, j) * ez.at(i, j) + bx.at(i, j) * bx.at(i, j) +
             by.at(i, j) * by.at(i, j) + bz.at(i, j) * bz.at(i, j);
      }
    }
    return 0.5 * s * dV;
  }

  [[nodiscard]] std::array<Field2D*, 6> emFields() {
    return {&ex, &ey, &ez, &bx, &by, &bz};
  }
  [[nodiscard]] std::array<Field2D*, 5> momentFields() {
    return {&rho, &jx, &jy, &jz, &chi};
  }
};

}  // namespace cbsim::xpic
