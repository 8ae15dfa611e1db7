#pragma once

// Particle solver (the paper's "pcl" code part): moves all species,
// migrates block-crossing particles to neighbour ranks, gathers moments,
// and charges the (scaled) simulated work of the Table II population.

#include <array>
#include <vector>

#include "pmpi/env.hpp"
#include "xpic/config.hpp"
#include "xpic/fields.hpp"
#include "xpic/halo.hpp"
#include "xpic/species.hpp"

namespace cbsim::xpic {

class ParticleSolver {
 public:
  ParticleSolver(const XpicConfig& cfg, const Grid2D& g, std::uint64_t seed);

  /// ParticlesMove of Fig. 6: implicit mover for every species.
  void particlesMove(const FieldArrays& f, pmpi::Env& env);

  /// Ships block-leaving particles to the neighbour ranks (8 directions).
  void migrate(pmpi::Env& env, pmpi::Comm comm);

  /// ParticleMoments of Fig. 6: deposition + reverse halo accumulation.
  void particleMoments(FieldArrays& f, HaloExchanger& halo, pmpi::Env& env);

  [[nodiscard]] std::vector<Species>& species() { return species_; }
  [[nodiscard]] const std::vector<Species>& species() const { return species_; }
  [[nodiscard]] long long particleCount() const;
  [[nodiscard]] double kineticEnergy() const;
  [[nodiscard]] double momentum(int axis) const;

 private:
  XpicConfig cfg_;
  const Grid2D& g_;
  std::vector<Species> species_;
  // Interleaved per-cell blocks shared by every species' kernel call
  // (FieldArrays::interleaveEM / storeMoments layouts).
  std::vector<double> em_, moments_;
};

}  // namespace cbsim::xpic
