#pragma once

// One particle species (SoA storage) and its core physics: implicit
// predictor-corrector mover, CIC moment deposition, and block-migration
// support.  These methods are pure numerics — simulated-time accounting is
// layered on top by ParticleSolver.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/rng.hpp"
#include "xpic/config.hpp"
#include "xpic/fields.hpp"
#include "xpic/grid.hpp"

namespace cbsim::xpic {

struct SpeciesParams {
  int id = 0;
  double charge = -1.0;  ///< in units of e
  double mass = 1.0;     ///< in units of m_e
  double vth = 0.1;      ///< thermal velocity (c units)
  double driftX = 0.0;
  int perCell = 6;       ///< real macro-particles initialized per cell
};

class Species {
 public:
  /// Particles the kernels process at once, one per vector lane; the
  /// n % kMoverLanes tail runs as one padded group.
  static constexpr std::size_t kMoverLanes = 8;

  Species(SpeciesParams p, const XpicConfig& cfg);

  [[nodiscard]] const SpeciesParams& params() const { return p_; }
  [[nodiscard]] std::size_t count() const { return x_.size(); }
  /// Statistical weight: each macro-particle represents weight/dV density.
  [[nodiscard]] double weight() const { return weight_; }

  /// Uniform lattice positions + Maxwellian velocities in the local block.
  void initThermal(const Grid2D& g, sim::Rng& rng);

  /// Implicit moment mover (predictor-corrector, cfg.moverIterations
  /// sweeps) against a FieldArrays::interleaveEM block of E, B (ghosts
  /// must be valid).  Applies the global periodic wrap; block ownership is
  /// restored by collectLeavers().
  void move(std::span<const double> em, const Grid2D& g);

  /// CIC deposition of rho, J, and the implicit susceptibility chi, added
  /// into an interleaved [rho jx jy jz chi] block of the padded cells
  /// (ghost contributions included; the caller stores it with
  /// FieldArrays::storeMoments and runs the reverse halo afterwards).
  void deposit(std::span<double> moments, const Grid2D& g) const;

  /// Removes particles that left the local block and packs them as
  /// [x y u v w]* per direction (8 neighbour directions, index
  /// dir = (dy+1)*3 + (dx+1) skipping the centre).
  void collectLeavers(const Grid2D& g, std::array<std::vector<double>, 8>& out);

  /// Appends packed particles produced by collectLeavers on another rank.
  void addPacked(std::span<const double> data);

  /// Serializes every particle as [x y u v w]* (checkpoint payload).
  [[nodiscard]] std::vector<double> packAll() const;
  /// Replaces the population with a packAll() payload (checkpoint restore).
  void restoreFrom(std::span<const double> data);

  /// Direction index helpers for the migration exchange.
  static int dirIndex(int dx, int dy);
  static std::pair<int, int> dirOffset(int dir);

  // ---- Diagnostics ----------------------------------------------------------
  [[nodiscard]] double kineticEnergy() const;  ///< sum 1/2 m w v^2
  [[nodiscard]] double momentum(int axis) const;
  [[nodiscard]] double chargeTotal() const { return p_.charge * weight_ * count(); }

  // Direct access for tests / examples.
  [[nodiscard]] std::span<const double> xs() const { return x_; }
  [[nodiscard]] std::span<const double> ys() const { return y_; }
  [[nodiscard]] std::span<const double> us() const { return u_; }
  void addParticle(double x, double y, double u, double v, double w);

 private:
  SpeciesParams p_;
  double dt_, theta_;
  int iters_ = 3;
  double weight_, invDV_;
  std::vector<double> x_, y_, u_, v_, w_;
};

/// Bilinear interpolation of a cell-centered field at (x, y); the grid's
/// ghost ring must be valid.
[[nodiscard]] double interpolate(const Field2D& f, const Grid2D& g, double x,
                                 double y);

}  // namespace cbsim::xpic
