#include "xpic/particle_solver.hpp"

#include "xpic/workmodel.hpp"

namespace cbsim::xpic {

ParticleSolver::ParticleSolver(const XpicConfig& cfg, const Grid2D& g,
                               std::uint64_t seed)
    : cfg_(cfg), g_(g) {
  const int perCell = std::max(1, cfg.ppcReal / cfg.nspec);
  // Electrons and ions; further species would slot in here.
  SpeciesParams electrons;
  electrons.id = 0;
  electrons.charge = -1.0;
  electrons.mass = 1.0;
  electrons.vth = cfg.vthElectron;
  electrons.driftX = cfg.driftElectron;
  electrons.perCell = perCell;
  SpeciesParams ions;
  ions.id = 1;
  ions.charge = 1.0;
  ions.mass = cfg.massRatio;
  ions.vth = cfg.vthIon;
  ions.perCell = perCell;
  for (int s = 0; s < cfg.nspec; ++s) {
    species_.emplace_back(s % 2 == 0 ? electrons : ions, cfg);
    // Deliberately rank-independent: initThermal derives per-cell streams
    // from this base, making the initial state decomposition-invariant.
    sim::Rng rng(seed * 1000003 + static_cast<std::uint64_t>(s) * 7919);
    species_.back().initThermal(g, rng);
  }
}

void ParticleSolver::particlesMove(const FieldArrays& f, pmpi::Env& env) {
  f.interleaveEM(em_);
  for (Species& s : species_) {
    s.move(em_, g_);
    env.compute(workmodel::mover(
        static_cast<double>(s.count()) * cfg_.particleScale(),
        cfg_.moverIterations));
  }
}

void ParticleSolver::migrate(pmpi::Env& env, pmpi::Comm comm) {
  for (Species& s : species_) {
    std::array<std::vector<double>, 8> out;
    s.collectLeavers(g_, out);
    for (int dir = 0; dir < 8; ++dir) {
      const auto [ox, oy] = Species::dirOffset(dir);
      const int dst = g_.neighbour(ox, oy);
      const int src = g_.neighbour(-ox, -oy);
      if (dst == g_.rank() && src == g_.rank()) {
        // Periodic wrap onto this rank: the global wrap in move() already
        // kept these particles local, so the buffer is necessarily empty.
        continue;
      }
      const int tagCount = 220 + dir + 16 * s.params().id;
      const int tagData = 400 + dir + 16 * s.params().id;
      const auto& buf = out[static_cast<std::size_t>(dir)];
      // Counts first, then payloads; receive-first ordering keeps the
      // exchange deadlock-free for any decomposition.
      std::uint64_t incoming = 0;
      const pmpi::Request rc =
          env.irecv(comm, src, tagCount, std::span<std::uint64_t>(&incoming, 1));
      const std::uint64_t outgoing = buf.size();
      env.send(comm, dst, tagCount, std::span<const std::uint64_t>(&outgoing, 1));
      env.wait(rc);

      std::vector<double> in(incoming);
      const pmpi::Request rd = env.irecv(comm, src, tagData, std::span<double>(in));
      env.send(comm, dst, tagData, std::span<const double>(buf));
      env.wait(rd);
      s.addPacked(in);
    }
  }
}

void ParticleSolver::particleMoments(FieldArrays& f, HaloExchanger& halo,
                                     pmpi::Env& env) {
  // Species deposit in turn onto one zeroed block: every cell sums in
  // particle order, species by species, the order the pinned results fix.
  moments_.assign(FieldArrays::kMomentStride * f.rho.raw().size(), 0.0);
  double scaled = 0;
  for (const Species& s : species_) {
    s.deposit(moments_, g_);
    scaled += static_cast<double>(s.count()) * cfg_.particleScale();
  }
  f.storeMoments(moments_);
  halo.accumulate({&f.rho, &f.jx, &f.jy, &f.jz, &f.chi});
  env.compute(workmodel::moments(scaled));
}

long long ParticleSolver::particleCount() const {
  long long n = 0;
  for (const Species& s : species_) n += static_cast<long long>(s.count());
  return n;
}

double ParticleSolver::kineticEnergy() const {
  double e = 0;
  for (const Species& s : species_) e += s.kineticEnergy();
  return e;
}

double ParticleSolver::momentum(int axis) const {
  double p = 0;
  for (const Species& s : species_) p += s.momentum(axis);
  return p;
}

}  // namespace cbsim::xpic
