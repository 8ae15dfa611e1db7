// xPic tests: decomposition and grid math, interpolation/deposition,
// single-particle physics (gyromotion, uniform-field acceleration), the
// exact-bits oracle for the particle kernels, migration bookkeeping, halo
// exchange across ranks, field-solver convergence, and full-run invariants
// in all three execution modes.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <string>
#include <vector>

#include "xpic/driver.hpp"
#include "xpic/field_solver.hpp"
#include "xpic/particle_solver.hpp"
#include "xpic/species.hpp"

namespace {

using namespace cbsim;
using xpic::Decomposition;
using xpic::Field2D;
using xpic::FieldArrays;
using xpic::Grid2D;
using xpic::Species;
using xpic::SpeciesParams;
using xpic::XpicConfig;

// ---- Decomposition / grid ------------------------------------------------------

TEST(Decomposition, FactorsDivideGrid) {
  for (const int ranks : {1, 2, 4, 8, 16}) {
    const Decomposition d = Decomposition::make(ranks, 64, 64);
    EXPECT_EQ(d.px * d.py, ranks);
    EXPECT_EQ(64 % d.px, 0);
    EXPECT_EQ(64 % d.py, 0);
  }
  const Decomposition d8 = Decomposition::make(8, 64, 64);
  EXPECT_EQ(d8.px, 4);
  EXPECT_EQ(d8.py, 2);
}

TEST(Grid2D, BlocksTileTheDomain) {
  const XpicConfig cfg = XpicConfig::tableII();
  int cells = 0;
  for (int r = 0; r < 4; ++r) {
    const Grid2D g(cfg, 4, r);
    cells += g.lnx() * g.lny();
    EXPECT_EQ(g.ranks(), 4);
  }
  EXPECT_EQ(cells, cfg.cells());
}

TEST(Grid2D, NeighbourWrapsPeriodically) {
  const XpicConfig cfg = XpicConfig::tableII();
  const Grid2D g(cfg, 4, 0);  // 2x2 process grid
  EXPECT_EQ(g.neighbour(1, 0), 1);
  EXPECT_EQ(g.neighbour(-1, 0), 1);  // wrap
  EXPECT_EQ(g.neighbour(0, 1), 2);
  EXPECT_EQ(g.neighbour(1, 1), 3);
  EXPECT_EQ(g.neighbour(0, 0), 0);
}

TEST(Field2D, InteriorReductions) {
  Field2D a(4, 4), b(4, 4);
  a.fill(2.0);
  b.fill(3.0);
  EXPECT_DOUBLE_EQ(interiorDot(a, b), 16 * 6.0);
  interiorAxpy(a, 0.5, b);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 3.5);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 2.0);  // ghosts untouched
}

// ---- Interpolation ---------------------------------------------------------------

TEST(Interpolate, ConstantFieldIsExact) {
  XpicConfig cfg = XpicConfig::tiny();
  const Grid2D g(cfg, 1, 0);
  Field2D f(g.lnx(), g.lny());
  f.fill(7.25);
  for (double x : {0.1, 3.3, 12.0}) {
    EXPECT_NEAR(xpic::interpolate(f, g, x, x * 0.7 + 1.0), 7.25, 1e-12);
  }
}

TEST(Interpolate, LinearFieldIsExact) {
  XpicConfig cfg = XpicConfig::tiny();
  const Grid2D g(cfg, 1, 0);
  Field2D f(g.lnx(), g.lny());
  // f = 2x + 3y at cell centers, extended into ghosts linearly.
  for (int j = 0; j <= g.lny() + 1; ++j) {
    for (int i = 0; i <= g.lnx() + 1; ++i) {
      const double xc = (i - 0.5) * g.dx();
      const double yc = (j - 0.5) * g.dy();
      f.at(i, j) = 2 * xc + 3 * yc;
    }
  }
  for (double x : {1.0, 2.7, 9.4}) {
    const double y = 0.5 * x + 2.0;
    EXPECT_NEAR(xpic::interpolate(f, g, x, y), 2 * x + 3 * y, 1e-10);
  }
}

// ---- Single-particle physics -------------------------------------------------------

/// One mover step against `f`, through the interleaved block the
/// ParticleSolver builds.
void moveOnce(Species& s, const FieldArrays& f, const Grid2D& g) {
  std::vector<double> em;
  f.interleaveEM(em);
  s.move(em, g);
}

XpicConfig singleParticleCfg() {
  XpicConfig cfg = XpicConfig::tiny();
  cfg.dt = 0.05;
  cfg.moverIterations = 3;
  return cfg;
}

TEST(Species, GyromotionConservesSpeedExactly) {
  const XpicConfig cfg = singleParticleCfg();
  const Grid2D g(cfg, 1, 0);
  FieldArrays f(g);
  f.bz.fill(1.0);
  SpeciesParams p;
  p.charge = -1;
  p.mass = 1;
  Species s(p, cfg);
  s.addParticle(cfg.lx / 2, cfg.ly / 2, 0.02, 0.0, 0.0);
  const double v0 = 0.02;
  for (int i = 0; i < 200; ++i) moveOnce(s, f, g);
  const double ke = s.kineticEnergy();
  const double v = std::sqrt(2 * ke / (p.mass * s.weight()));
  EXPECT_NEAR(v, v0, 1e-12);  // the rotation form is norm-preserving
}

TEST(Species, GyroPeriodMatchesCyclotronFrequency) {
  const XpicConfig cfg = singleParticleCfg();
  const Grid2D g(cfg, 1, 0);
  FieldArrays f(g);
  const double b0 = 0.5;
  f.bz.fill(b0);
  SpeciesParams p;
  p.charge = -1;
  p.mass = 1;
  Species s(p, cfg);
  s.addParticle(cfg.lx / 2, cfg.ly / 2, 0.01, 0.0, 0.0);
  // u = v0 cos(w t): one full period spans three consecutive zero
  // crossings (at pi/2, 3pi/2, 5pi/2).
  double prevU = s.us()[0];
  int crossings = 0;
  int steps = 0;
  int firstCrossing = 0;
  while (crossings < 3 && steps < 10000) {
    moveOnce(s, f, g);
    ++steps;
    const double nu = s.us()[0];
    if ((prevU < 0) != (nu < 0)) {
      ++crossings;
      if (crossings == 1) firstCrossing = steps;
    }
    prevU = nu;
  }
  const double period = (steps - firstCrossing) * cfg.dt;
  const double expected = 2 * std::numbers::pi * p.mass / (std::abs(p.charge) * b0);
  EXPECT_NEAR(period, expected, expected * 0.02);
}

TEST(Species, UniformEFieldAcceleratesExactly) {
  const XpicConfig cfg = singleParticleCfg();
  const Grid2D g(cfg, 1, 0);
  FieldArrays f(g);
  f.ez.fill(0.01);  // z-field: no spatial motion, no B -> exact update
  SpeciesParams p;
  p.charge = -1;
  p.mass = 2.0;
  Species s(p, cfg);
  s.addParticle(cfg.lx / 2, cfg.ly / 2, 0.0, 0.0, 0.0);
  const int n = 50;
  for (int i = 0; i < n; ++i) moveOnce(s, f, g);
  const double expected = p.charge / p.mass * 0.01 * cfg.dt * n;
  const double pz = s.momentum(2) / (p.mass * s.weight());
  EXPECT_NEAR(pz, expected, std::abs(expected) * 1e-10);
}

// ---- Deposition ------------------------------------------------------------------

TEST(Species, DepositConservesCharge) {
  const XpicConfig cfg = XpicConfig::tiny();
  const Grid2D g(cfg, 1, 0);
  FieldArrays f(g);
  SpeciesParams p;
  p.charge = -1;
  p.perCell = 4;
  Species s(p, cfg);
  sim::Rng rng(3);
  s.initThermal(g, rng);
  std::vector<double> moments(FieldArrays::kMomentStride * f.rho.raw().size());
  s.deposit(moments, g);
  f.storeMoments(moments);
  // Single rank: fold the ghost deposits back in (periodic).
  double total = 0;
  for (int j = 0; j <= g.lny() + 1; ++j) {
    for (int i = 0; i <= g.lnx() + 1; ++i) total += f.rho.at(i, j);
  }
  const double dV = g.dx() * g.dy();
  EXPECT_NEAR(total * dV, s.chargeTotal(), 1e-9);
  EXPECT_GT(f.chi.interiorSum(), 0.0);  // susceptibility is positive
}

// ---- Exact-bits oracle ----------------------------------------------------------
//
// The scalar per-field mover and deposit and the per-particle leaver scan
// that the interleaved, lane-grouped kernels replaced, kept here as the
// reference.  Every golden and pinned benchmark output depends on the
// kernels reproducing these bit for bit: same operations in the same order,
// particles visited in the same order.

namespace scalar_ref {

struct Stencil {
  int i, j;
  double wx, wy;
};

Stencil stencilAt(const Grid2D& g, double x, double y) {
  const double gx = x / g.dx() - 0.5;
  const double gy = y / g.dy() - 0.5;
  const int gi = static_cast<int>(std::floor(gx));
  const int gj = static_cast<int>(std::floor(gy));
  Stencil s;
  s.i = gi - g.x0() + 1;
  s.j = gj - g.y0() + 1;
  s.wx = gx - gi;
  s.wy = gy - gj;
  EXPECT_TRUE(s.i >= 0 && s.i <= g.lnx() && s.j >= 0 && s.j <= g.lny())
      << "stencil outside the ghost ring at (" << x << ", " << y << ")";
  return s;
}

double gather(const Field2D& f, const Stencil& s) {
  return (1 - s.wx) * (1 - s.wy) * f.at(s.i, s.j) +
         s.wx * (1 - s.wy) * f.at(s.i + 1, s.j) +
         (1 - s.wx) * s.wy * f.at(s.i, s.j + 1) +
         s.wx * s.wy * f.at(s.i + 1, s.j + 1);
}

void scatter(Field2D& f, const Stencil& s, double v) {
  f.at(s.i, s.j) += (1 - s.wx) * (1 - s.wy) * v;
  f.at(s.i + 1, s.j) += s.wx * (1 - s.wy) * v;
  f.at(s.i, s.j + 1) += (1 - s.wx) * s.wy * v;
  f.at(s.i + 1, s.j + 1) += s.wx * s.wy * v;
}

double wrap(double v, double period) {
  if (v >= period) return v - period;
  if (v < 0) return v + period;
  return v;
}

/// One species' particles, unpacked from Species::packAll().
struct Particles {
  std::vector<double> x, y, u, v, w;

  explicit Particles(const Species& s) {
    const std::vector<double> all = s.packAll();
    for (std::size_t k = 0; k < all.size(); k += 5) {
      x.push_back(all[k]);
      y.push_back(all[k + 1]);
      u.push_back(all[k + 2]);
      v.push_back(all[k + 3]);
      w.push_back(all[k + 4]);
    }
  }
  [[nodiscard]] std::vector<double> packAll() const {
    std::vector<double> out;
    for (std::size_t k = 0; k < x.size(); ++k) {
      out.insert(out.end(), {x[k], y[k], u[k], v[k], w[k]});
    }
    return out;
  }
};

void move(Particles& p, const SpeciesParams& sp, const XpicConfig& cfg,
          const FieldArrays& f, const Grid2D& g) {
  const double dt = cfg.dt;
  const double qdt2m = sp.charge * dt / (2.0 * sp.mass);
  const int iters = std::max(1, cfg.moverIterations);
  for (std::size_t k = 0; k < p.x.size(); ++k) {
    double xb = p.x[k], yb = p.y[k];
    double ub = p.u[k], vb = p.v[k], wb = p.w[k];
    for (int it = 0; it < iters; ++it) {
      const Stencil s = stencilAt(g, xb, yb);
      const double ex = gather(f.ex, s), ey = gather(f.ey, s), ez = gather(f.ez, s);
      const double bx = gather(f.bx, s), by = gather(f.by, s), bz = gather(f.bz, s);
      const double vx = p.u[k] + qdt2m * ex;
      const double vy = p.v[k] + qdt2m * ey;
      const double vz = p.w[k] + qdt2m * ez;
      const double tx = qdt2m * bx, ty = qdt2m * by, tz = qdt2m * bz;
      const double tsq = tx * tx + ty * ty + tz * tz;
      const double vdt = vx * tx + vy * ty + vz * tz;
      const double inv = 1.0 / (1.0 + tsq);
      ub = (vx + (vy * tz - vz * ty) + vdt * tx) * inv;
      vb = (vy + (vz * tx - vx * tz) + vdt * ty) * inv;
      wb = (vz + (vx * ty - vy * tx) + vdt * tz) * inv;
      xb = p.x[k] + 0.5 * dt * ub;
      yb = p.y[k] + 0.5 * dt * vb;
    }
    p.u[k] = 2.0 * ub - p.u[k];
    p.v[k] = 2.0 * vb - p.v[k];
    p.w[k] = 2.0 * wb - p.w[k];
    p.x[k] = wrap(p.x[k] + dt * ub, g.lxGlobal());
    p.y[k] = wrap(p.y[k] + dt * vb, g.lyGlobal());
  }
}

void deposit(const Particles& p, const SpeciesParams& sp, double weight,
             const XpicConfig& cfg, FieldArrays& f, const Grid2D& g) {
  const double invDV = 1.0 / (cfg.dx() * cfg.dy());
  const double qw = sp.charge * weight * invDV;
  const double chiw = sp.charge * sp.charge / sp.mass * weight * invDV * 0.5 *
                      (cfg.theta * cfg.dt) * (cfg.theta * cfg.dt);
  for (std::size_t k = 0; k < p.x.size(); ++k) {
    const Stencil s = stencilAt(g, p.x[k], p.y[k]);
    scatter(f.rho, s, qw);
    scatter(f.jx, s, qw * p.u[k]);
    scatter(f.jy, s, qw * p.v[k]);
    scatter(f.jz, s, qw * p.w[k]);
    scatter(f.chi, s, chiw);
  }
}

void collectLeavers(Particles& p, const Grid2D& g,
                    std::array<std::vector<double>, 8>& out) {
  const int lnx = g.lnx(), lny = g.lny();
  std::size_t k = 0;
  while (k < p.x.size()) {
    const int gi = static_cast<int>(p.x[k] / g.dx());
    const int gj = static_cast<int>(p.y[k] / g.dy());
    const int ox = gi / lnx;  // owning block column
    const int oy = gj / lny;
    int dx = ox - g.cx();
    int dy = oy - g.cy();
    // Shortest periodic block distance.
    if (dx > g.px() / 2) dx -= g.px();
    if (dx < -g.px() / 2) dx += g.px();
    if (dy > g.py() / 2) dy -= g.py();
    if (dy < -g.py() / 2) dy += g.py();
    EXPECT_TRUE(dx >= -1 && dx <= 1 && dy >= -1 && dy <= 1);
    if (dx == 0 && dy == 0) {
      ++k;
      continue;
    }
    auto& buf = out[static_cast<std::size_t>(Species::dirIndex(dx, dy))];
    buf.insert(buf.end(), {p.x[k], p.y[k], p.u[k], p.v[k], p.w[k]});
    for (std::vector<double>* c : {&p.x, &p.y, &p.u, &p.v, &p.w}) {
      (*c)[k] = c->back();
      c->pop_back();
    }
  }
}

}  // namespace scalar_ref

/// Index of the first element whose bits differ, or -1.
long long firstBitMismatch(const std::vector<double>& a,
                           const std::vector<double>& b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (std::bit_cast<std::uint64_t>(a[k]) != std::bit_cast<std::uint64_t>(b[k])) {
      return static_cast<long long>(k);
    }
  }
  return -1;
}

/// Electrons and (heavier, positive) ions, the ParticleSolver's two species.
std::array<SpeciesParams, 2> oracleSpecies() {
  SpeciesParams e;
  e.id = 0;
  e.charge = -1.0;
  e.mass = 1.0;
  e.perCell = 2;
  SpeciesParams i = e;
  i.id = 1;
  i.charge = 1.0;
  i.mass = 64.0;
  return {e, i};
}

/// `n` seeded particles in g's block, a third of them near its edges.
void seedPopulation(Species& s, const Grid2D& g, std::size_t n,
                    std::uint64_t seed) {
  sim::Rng rng(seed);
  for (std::size_t k = 0; k < n; ++k) {
    double x = g.xMin() + rng.uniform() * (g.xMax() - g.xMin());
    double y = g.yMin() + rng.uniform() * (g.yMax() - g.yMin());
    double u = 0.1 * rng.normal(), v = 0.1 * rng.normal();
    const double w = 0.1 * rng.normal();
    if (k % 3 == 1) {
      // Within one cell of a block edge; every third of these sits 0.01
      // inside it moving outward at 0.3, so its half-step position (0.5 dt
      // |u| = 0.015 away at dt = 0.1) is in the ghost ring.
      const bool high = rng.uniform() < 0.5;
      const bool outward = k % 9 == 1;
      const double inset = outward ? 0.01 : rng.uniform() * g.dx();
      const double speed = high ? 0.3 : -0.3;
      if (k % 2 == 0) {
        x = high ? g.xMax() - inset : g.xMin() + inset;
        if (outward) u = speed;
      } else {
        y = high ? g.yMax() - inset : g.yMin() + inset;
        if (outward) v = speed;
      }
    }
    s.addParticle(x, y, u, v, w);
  }
}

/// Random E, B over every padded cell (ghosts included), strong enough that
/// every term of the rotation matters.
void seedFields(FieldArrays& f, std::uint64_t seed) {
  sim::Rng rng(seed);
  for (Field2D* fld : {&f.ex, &f.ey, &f.ez}) {
    for (double& v : fld->raw()) v = 0.05 * rng.normal();
  }
  for (Field2D* fld : {&f.bx, &f.by, &f.bz}) {
    for (double& v : fld->raw()) v = 0.5 * rng.normal();
  }
}

/// Runs `steps` mover+deposit steps of both species through the kernels and
/// through the scalar reference and requires bit-identical particles and
/// moments after every step.
void expectKernelsMatchReference(const XpicConfig& cfg, const Grid2D& g,
                                 std::size_t n, int steps,
                                 const std::string& what) {
  FieldArrays f(g);
  seedFields(f, n + 17);
  std::vector<double> em;
  f.interleaveEM(em);
  const auto params = oracleSpecies();
  std::vector<Species> kernel;
  std::vector<scalar_ref::Particles> ref;
  for (std::size_t sp = 0; sp < params.size(); ++sp) {
    kernel.emplace_back(params[sp], cfg);
    seedPopulation(kernel.back(), g, n, 1000 * n + sp);
    ref.emplace_back(kernel.back());
  }
  for (int step = 0; step < steps; ++step) {
    const std::string at = what + " step " + std::to_string(step);
    FieldArrays refMoments(g);
    std::vector<double> block(FieldArrays::kMomentStride * f.rho.raw().size(),
                              0.0);
    for (std::size_t sp = 0; sp < params.size(); ++sp) {
      kernel[sp].move(em, g);
      scalar_ref::move(ref[sp], params[sp], cfg, f, g);
      EXPECT_EQ(firstBitMismatch(kernel[sp].packAll(), ref[sp].packAll()), -1)
          << at << " species " << sp << ": [x y u v w] differ";
      // The second species deposits on top of the first.
      kernel[sp].deposit(block, g);
      scalar_ref::deposit(ref[sp], params[sp], kernel[sp].weight(), cfg,
                          refMoments, g);
    }
    FieldArrays stored(g);
    stored.storeMoments(block);
    const char* names[] = {"rho", "jx", "jy", "jz", "chi"};
    const auto got = stored.momentFields();
    const auto want = refMoments.momentFields();
    for (std::size_t m = 0; m < got.size(); ++m) {
      EXPECT_EQ(firstBitMismatch(got[m]->raw(), want[m]->raw()), -1)
          << at << ": moment " << names[m] << " differs";
    }
  }
}

TEST(KernelOracle, MoverAndDepositMatchScalarReferenceBitForBit) {
  const XpicConfig cfg = XpicConfig::tiny();
  // One rank: the global wrap keeps every particle on the block, and
  // half-step positions past the domain edge land in the ghost ring.
  const Grid2D whole(cfg, 1, 0);
  // An interior block of a 4x4 decomposition: every edge is a rank edge.
  const Grid2D interior(cfg, 16, 5);
  ASSERT_GT(interior.xMin(), 0.0);
  ASSERT_LT(interior.xMax(), interior.lxGlobal());
  ASSERT_GT(interior.yMin(), 0.0);
  ASSERT_LT(interior.yMax(), interior.lyGlobal());
  // Both sides of every lane-group boundary, and a long run ending in a
  // padded group of L-1.
  constexpr std::size_t L = Species::kMoverLanes;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, L - 1, L, L + 1,
                              2 * L, 97 * L + L - 1}) {
    expectKernelsMatchReference(cfg, whole, n, 6,
                                "1 rank, n=" + std::to_string(n));
    expectKernelsMatchReference(cfg, interior, n, 4,
                                "interior block, n=" + std::to_string(n));
  }
}

TEST(KernelOracle, InterpolateMatchesScalarGather) {
  const XpicConfig cfg = XpicConfig::tiny();
  const Grid2D g(cfg, 16, 5);
  FieldArrays f(g);
  seedFields(f, 3);
  sim::Rng rng(9);
  for (int k = 0; k < 200; ++k) {
    // Anywhere the stencil stays inside the ghost ring.
    const double x = g.xMin() - 0.49 * g.dx() +
                     rng.uniform() * (g.xMax() - g.xMin() + 0.98 * g.dx());
    const double y = g.yMin() - 0.49 * g.dy() +
                     rng.uniform() * (g.yMax() - g.yMin() + 0.98 * g.dy());
    const double want = scalar_ref::gather(f.bz, scalar_ref::stencilAt(g, x, y));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(xpic::interpolate(f.bz, g, x, y)),
              std::bit_cast<std::uint64_t>(want))
        << "at (" << x << ", " << y << ")";
  }
}

/// Particles exactly on g's block edges and corners and half a cell past
/// them in every direction, wrapped into the periodic domain, each after a
/// seeded run of 0 to 2L-1 particles inside the block: leavers land in
/// every lane of a group and whole groups stay.
void seedLeaverPopulation(Species& s, const Grid2D& g, std::uint64_t seed) {
  constexpr std::size_t L = Species::kMoverLanes;
  sim::Rng rng(seed);
  // Draws in statement order, so every compiler seeds the same population.
  const auto add = [&](double x, double y) {
    const double u = rng.normal();
    const double v = rng.normal();
    s.addParticle(x, y, u, v, rng.normal());
  };
  const auto inside = [&] {
    const double x = g.xMin() + rng.uniform() * (g.xMax() - g.xMin());
    add(x, g.yMin() + rng.uniform() * (g.yMax() - g.yMin()));
  };
  // Wraps past-the-edge offsets; a point exactly on the domain edge stays.
  const auto wrapped = [](double v, double period) {
    return v < 0 ? v + period : (v > period ? v - period : v);
  };
  const std::vector<double> xs = {
      g.xMin() - 0.5 * g.dx(), g.xMin(), g.xMin() + 0.5 * g.dx(),
      g.xMax() - 0.5 * g.dx(), g.xMax(), g.xMax() + 0.5 * g.dx()};
  const std::vector<double> ys = {
      g.yMin() - 0.5 * g.dy(), g.yMin(), g.yMin() + 0.5 * g.dy(),
      g.yMax() - 0.5 * g.dy(), g.yMax(), g.yMax() + 0.5 * g.dy()};
  for (const double x : xs) {
    for (const double y : ys) {
      const auto run = static_cast<std::size_t>(rng.uniform() * 2 * L);
      for (std::size_t k = 0; k < run; ++k) inside();
      add(wrapped(x, g.lxGlobal()), wrapped(y, g.lyGlobal()));
    }
  }
  for (std::size_t k = 0; k < 3 * L + 1; ++k) inside();
}

TEST(KernelOracle, CollectLeaversMatchesScalarReference) {
  const XpicConfig cfg = XpicConfig::tiny();
  struct Case {
    Grid2D g;
    const char* what;
    bool leavers;  ///< whether every direction must receive particles
  };
  const Case cases[] = {
      // Every position is on the one block; x == lx wraps back onto it.
      {Grid2D(cfg, 1, 0), "1 rank", false},
      {Grid2D(cfg, 16, 5), "interior block of 4x4", true},
      // Leavers past xMin/yMin cross the periodic wrap.
      {Grid2D(cfg, 16, 0), "corner block of 4x4", true},
  };
  for (const Case& c : cases) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const std::string at =
          std::string(c.what) + ", seed " + std::to_string(seed);
      Species kernel(oracleSpecies()[0], cfg);
      seedLeaverPopulation(kernel, c.g, seed);
      scalar_ref::Particles ref(kernel);
      std::array<std::vector<double>, 8> got, want;
      kernel.collectLeavers(c.g, got);
      scalar_ref::collectLeavers(ref, c.g, want);
      for (std::size_t dir = 0; dir < 8; ++dir) {
        EXPECT_EQ(firstBitMismatch(got[dir], want[dir]), -1)
            << at << ": direction " << dir << " differs";
        if (c.leavers) {
          EXPECT_FALSE(got[dir].empty()) << at << ": direction " << dir;
        }
      }
      EXPECT_EQ(firstBitMismatch(kernel.packAll(), ref.packAll()), -1)
          << at << ": surviving particles differ";
    }
  }
}

// ---- Migration bookkeeping ----------------------------------------------------------

TEST(Species, DirIndexRoundtrips) {
  int seen = 0;
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      if (dx == 0 && dy == 0) continue;
      const int dir = Species::dirIndex(dx, dy);
      EXPECT_GE(dir, 0);
      EXPECT_LT(dir, 8);
      const auto [ox, oy] = Species::dirOffset(dir);
      EXPECT_EQ(ox, dx);
      EXPECT_EQ(oy, dy);
      ++seen;
    }
  }
  EXPECT_EQ(seen, 8);
}

TEST(Species, CollectLeaversMovesCrossers) {
  XpicConfig cfg = XpicConfig::tableII();
  const Grid2D g(cfg, 4, 0);  // 2x2 blocks; rank 0 lower-left
  SpeciesParams p;
  Species s(p, cfg);
  s.addParticle(g.xMax() + 0.1, g.yMin() + 1.0, 0, 0, 0);  // right
  s.addParticle(g.xMin() + 1.0, g.yMin() + 1.0, 0, 0, 0);  // stays
  s.addParticle(g.xMax() + 0.1, g.yMax() + 0.1, 0, 0, 0);  // corner
  std::array<std::vector<double>, 8> out;
  s.collectLeavers(g, out);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(out[static_cast<std::size_t>(Species::dirIndex(1, 0))].size(), 5u);
  EXPECT_EQ(out[static_cast<std::size_t>(Species::dirIndex(1, 1))].size(), 5u);
  // Re-adding restores the particle verbatim.
  Species s2(p, cfg);
  s2.addPacked(out[static_cast<std::size_t>(Species::dirIndex(1, 0))]);
  EXPECT_EQ(s2.count(), 1u);
  EXPECT_NEAR(s2.xs()[0], g.xMax() + 0.1, 1e-12);
}

// ---- Full runs ------------------------------------------------------------------------

XpicConfig integrationCfg() {
  XpicConfig cfg = XpicConfig::tiny();
  cfg.steps = 4;
  return cfg;
}

class XpicModes : public ::testing::TestWithParam<xpic::Mode> {};

INSTANTIATE_TEST_SUITE_P(AllModes, XpicModes,
                         ::testing::Values(xpic::Mode::ClusterOnly,
                                           xpic::Mode::BoosterOnly,
                                           xpic::Mode::ClusterBooster));

TEST_P(XpicModes, SingleNodeInvariants) {
  const XpicConfig cfg = integrationCfg();
  const xpic::Report r = xpic::runXpic(GetParam(), 1, cfg);
  // Particle census: every cell seeded ppcReal/nspec per species.
  const long long expected =
      static_cast<long long>(cfg.cells()) * (cfg.ppcReal / cfg.nspec) * cfg.nspec;
  EXPECT_EQ(r.particleCount, expected);
  EXPECT_NEAR(r.netCharge, 0.0, 1e-9);
  EXPECT_GT(r.kineticEnergy, 0.0);
  EXPECT_GE(r.fieldEnergy, 0.0);
  EXPECT_GT(r.fieldsSec, 0.0);
  EXPECT_GT(r.particlesSec, 0.0);
  EXPECT_GT(r.wallSec, 0.0);
  EXPECT_GT(r.cgIterations, 0);
}

TEST_P(XpicModes, MultiNodeConservesParticles) {
  const XpicConfig cfg = integrationCfg();
  for (const int n : {2, 4}) {
    const xpic::Report r = xpic::runXpic(GetParam(), n, cfg);
    const long long expected =
        static_cast<long long>(cfg.cells()) * (cfg.ppcReal / cfg.nspec) * cfg.nspec;
    EXPECT_EQ(r.particleCount, expected) << "n=" << n;
    EXPECT_NEAR(r.netCharge, 0.0, 1e-9);
  }
}

TEST(Xpic, FieldSolverConverges) {
  XpicConfig cfg = integrationCfg();
  cfg.cgTol = 1e-10;
  const xpic::Report r = xpic::runXpic(xpic::Mode::ClusterOnly, 1, cfg);
  // A thermal, quasi-neutral plasma must not blow up in a few steps.
  EXPECT_LT(r.fieldEnergy, r.kineticEnergy);
}

TEST(Xpic, MomentumDriftIsSmallInNeutralPlasma) {
  // No external drive: the total particle momentum should stay close to its
  // (random, O(sqrt(N) vth m w)) initial value.  Compare an evolved run
  // against a zero-step run with identical seeding.
  XpicConfig cfg = integrationCfg();
  cfg.steps = 0;
  const xpic::Report r0 = xpic::runXpic(xpic::Mode::ClusterOnly, 1, cfg);
  cfg.steps = 8;
  const xpic::Report r8 = xpic::runXpic(xpic::Mode::ClusterOnly, 1, cfg);
  EXPECT_LT(std::abs(r8.momentumX - r0.momentumX),
            0.05 * std::max(1.0, std::abs(r0.momentumX)));
}

TEST(Xpic, CbModeUsesBothPartitions) {
  const XpicConfig cfg = integrationCfg();
  const xpic::Report r = xpic::runXpic(xpic::Mode::ClusterBooster, 2, cfg);
  EXPECT_GT(r.fieldsSec, 0.0);     // measured on Cluster ranks
  EXPECT_GT(r.particlesSec, 0.0);  // measured on Booster ranks
  EXPECT_GT(r.auxSec, 0.0);
}

TEST(Xpic, ReportsCommunicationShares) {
  const XpicConfig cfg = integrationCfg();
  const xpic::Report r = xpic::runXpic(xpic::Mode::ClusterBooster, 2, cfg);
  EXPECT_GE(r.fieldCommPct(), 0.0);
  EXPECT_LT(r.fieldCommPct(), 100.0);
  EXPECT_GE(r.particleCommPct(), 0.0);
}

}  // namespace
