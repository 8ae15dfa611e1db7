#include "xpic/species.hpp"

#include <cassert>
#include <cstddef>

namespace cbsim::xpic {

namespace {

/// Bilinear stencil around (x, y): the padded index of the base cell (i, j)
/// and the weights of the corners (i,j), (i+1,j), (i,j+1), (i+1,j+1) — the
/// order in which every gather sums and every scatter adds.
struct Stencil {
  std::size_t cell;
  std::array<double, 4> w;
};

/// std::floor for finite, int-ranged values.  Without SSE4.1's roundsd,
/// GCC expands std::floor into a longer mask-and-compare sequence; this
/// truncation returns the same integer and measurably shortens the mover.
int floorToInt(double v) {
  const int t = static_cast<int>(v);
  return v < t ? t - 1 : t;
}

Stencil stencilAt(const Grid2D& g, double x, double y) {
  const double gx = x / g.dx() - 0.5;
  const double gy = y / g.dy() - 0.5;
  const int gi = floorToInt(gx);
  const int gj = floorToInt(gy);
  const double wx = gx - gi;
  const double wy = gy - gj;
  const int i = gi - g.x0() + 1;
  const int j = gj - g.y0() + 1;
  assert(i >= 0 && i <= g.lnx() && j >= 0 && j <= g.lny());
  return {static_cast<std::size_t>(j * (g.lnx() + 2) + i),
          {(1 - wx) * (1 - wy), wx * (1 - wy), (1 - wx) * wy, wx * wy}};
}

/// Bilinear gather of component `k` from a block of `stride` doubles per
/// padded cell.
double gather(const double* block, std::size_t stride, std::size_t row,
              const Stencil& s, std::size_t k) {
  const double* c = block + stride * s.cell + k;
  return s.w[0] * c[0] + s.w[1] * c[stride] + s.w[2] * c[stride * row] +
         s.w[3] * c[stride * (row + 1)];
}

double wrap(double v, double period) {
  if (v >= period) return v - period;
  if (v < 0) return v + period;
  return v;
}

/// Per-call constants of the mover.
struct MoverStep {
  double qdt2m, dt;
  int iters;
};

/// Advances the L particles at x..w[0, L).  Each lane runs exactly the
/// scalar predictor-corrector chain; the lanes are independent, so a group
/// keeps L divide/gather chains in flight instead of one.
template <std::size_t L>
void advance(const Grid2D& g, const MoverStep& m, const double* em, double* x,
             double* y, double* u, double* v, double* w) {
  constexpr std::size_t S = FieldArrays::kEMStride;
  const auto row = static_cast<std::size_t>(g.lnx() + 2);
  std::array<double, L> xb, yb, ub, vb, wb;
  for (std::size_t l = 0; l < L; ++l) {
    xb[l] = x[l];
    yb[l] = y[l];
    ub[l] = u[l];
    vb[l] = v[l];
    wb[l] = w[l];
  }
  for (int it = 0; it < m.iters; ++it) {
    for (std::size_t l = 0; l < L; ++l) {
      const Stencil s = stencilAt(g, xb[l], yb[l]);
      const double ex = gather(em, S, row, s, 0);
      const double ey = gather(em, S, row, s, 1);
      const double ez = gather(em, S, row, s, 2);
      const double bx = gather(em, S, row, s, 3);
      const double by = gather(em, S, row, s, 4);
      const double bz = gather(em, S, row, s, 5);
      // Exact solution of v~ = v' + v~ x t  with v' = v^n + qdt/2m E,
      // t = qdt/2m B (the implicit-moment rotation).
      const double vx = u[l] + m.qdt2m * ex;
      const double vy = v[l] + m.qdt2m * ey;
      const double vz = w[l] + m.qdt2m * ez;
      const double tx = m.qdt2m * bx, ty = m.qdt2m * by, tz = m.qdt2m * bz;
      const double tsq = tx * tx + ty * ty + tz * tz;
      const double vdt = vx * tx + vy * ty + vz * tz;
      const double inv = 1.0 / (1.0 + tsq);
      ub[l] = (vx + (vy * tz - vz * ty) + vdt * tx) * inv;
      vb[l] = (vy + (vz * tx - vx * tz) + vdt * ty) * inv;
      wb[l] = (vz + (vx * ty - vy * tx) + vdt * tz) * inv;
      // Half-step position for the next field gather; stays within the
      // ghost ring for CFL-respecting time steps.
      xb[l] = x[l] + 0.5 * m.dt * ub[l];
      yb[l] = y[l] + 0.5 * m.dt * vb[l];
    }
  }
  for (std::size_t l = 0; l < L; ++l) {
    u[l] = 2.0 * ub[l] - u[l];
    v[l] = 2.0 * vb[l] - v[l];
    w[l] = 2.0 * wb[l] - w[l];
    x[l] = wrap(x[l] + m.dt * ub[l], g.lxGlobal());
    y[l] = wrap(y[l] + m.dt * vb[l], g.lyGlobal());
  }
}

}  // namespace

double interpolate(const Field2D& f, const Grid2D& g, double x, double y) {
  return gather(f.raw().data(), 1, static_cast<std::size_t>(g.lnx() + 2),
                stencilAt(g, x, y), 0);
}

Species::Species(SpeciesParams p, const XpicConfig& cfg)
    : p_(p),
      dt_(cfg.dt),
      theta_(cfg.theta),
      iters_(std::max(1, cfg.moverIterations)),
      weight_(cfg.dx() * cfg.dy() / p.perCell),
      invDV_(1.0 / (cfg.dx() * cfg.dy())) {}

void Species::initThermal(const Grid2D& g, sim::Rng& rng) {
  const std::size_t n =
      static_cast<std::size_t>(g.lnx()) * static_cast<std::size_t>(g.lny()) *
      static_cast<std::size_t>(p_.perCell);
  x_.reserve(n);
  y_.reserve(n);
  u_.reserve(n);
  v_.reserve(n);
  w_.reserve(n);
  // The base seed comes from the caller; each cell re-seeds from its
  // GLOBAL index, so the initial plasma state is identical for every
  // domain decomposition — the property the multi-rank consistency tests
  // rely on.
  sim::Rng base = rng;
  const std::uint64_t baseSeed = base.next();
  const int gnx = g.lnx() * g.px();
  for (int j = 0; j < g.lny(); ++j) {
    for (int i = 0; i < g.lnx(); ++i) {
      const std::uint64_t cellId =
          static_cast<std::uint64_t>(g.y0() + j) * static_cast<std::uint64_t>(gnx) +
          static_cast<std::uint64_t>(g.x0() + i);
      sim::Rng cellRng(baseSeed ^ (0x9e3779b97f4a7c15ULL * (cellId + 1)));
      for (int k = 0; k < p_.perCell; ++k) {
        // Jittered sub-cell lattice: uniform density without clumping.
        const double fx = (k % 2 + cellRng.uniform()) / 2.0;
        const double fy = (k / 2 % 2 + cellRng.uniform()) / 2.0;
        addParticle(g.xMin() + (i + fx) * g.dx(), g.yMin() + (j + fy) * g.dy(),
                    p_.driftX + p_.vth * cellRng.normal(),
                    p_.vth * cellRng.normal(), p_.vth * cellRng.normal());
      }
    }
  }
}

void Species::addParticle(double x, double y, double u, double v, double w) {
  x_.push_back(x);
  y_.push_back(y);
  u_.push_back(u);
  v_.push_back(v);
  w_.push_back(w);
}

void Species::move(std::span<const double> em, const Grid2D& g) {
  const MoverStep m{p_.charge * dt_ / (2.0 * p_.mass), dt_, iters_};
  assert(em.size() == FieldArrays::kEMStride *
                          static_cast<std::size_t>((g.lnx() + 2) * (g.lny() + 2)));
  constexpr std::size_t kGroup = 4;
  const std::size_t n = x_.size();
  std::size_t k = 0;
  for (; k + kGroup <= n; k += kGroup) {
    advance<kGroup>(g, m, em.data(), &x_[k], &y_[k], &u_[k], &v_[k], &w_[k]);
  }
  for (; k < n; ++k) {
    advance<1>(g, m, em.data(), &x_[k], &y_[k], &u_[k], &v_[k], &w_[k]);
  }
}

void Species::deposit(std::span<double> moments, const Grid2D& g) const {
  const double qw = p_.charge * weight_ * invDV_;
  // Implicit susceptibility: chi = sum_s omega_ps^2 (theta dt)^2 / 2,
  // deposited per particle like the density.
  const double chiw = p_.charge * p_.charge / p_.mass * weight_ * invDV_ *
                      0.5 * (theta_ * dt_) * (theta_ * dt_);
  constexpr std::size_t S = FieldArrays::kMomentStride;
  const auto row = static_cast<std::size_t>(g.lnx() + 2);
  assert(moments.size() ==
         S * static_cast<std::size_t>((g.lnx() + 2) * (g.lny() + 2)));
  const std::array<std::size_t, 4> corner = {0, S, S * row, S * (row + 1)};
  for (std::size_t k = 0; k < x_.size(); ++k) {
    const Stencil s = stencilAt(g, x_[k], y_[k]);
    const std::array<double, S> val = {qw, qw * u_[k], qw * v_[k],
                                       qw * w_[k], chiw};
    double* c = moments.data() + S * s.cell;
    for (std::size_t q = 0; q < 4; ++q) {
      for (std::size_t a = 0; a < S; ++a) c[corner[q] + a] += s.w[q] * val[a];
    }
  }
}

int Species::dirIndex(int dx, int dy) {
  assert(dx != 0 || dy != 0);
  const int raw = (dy + 1) * 3 + (dx + 1);
  return raw > 4 ? raw - 1 : raw;  // skip the (0,0) centre slot
}

std::pair<int, int> Species::dirOffset(int dir) {
  const int raw = dir >= 4 ? dir + 1 : dir;
  return {raw % 3 - 1, raw / 3 - 1};
}

void Species::collectLeavers(const Grid2D& g,
                             std::array<std::vector<double>, 8>& out) {
  const int lnx = g.lnx(), lny = g.lny();
  std::size_t k = 0;
  while (k < x_.size()) {
    const int gi = static_cast<int>(x_[k] / g.dx());
    const int gj = static_cast<int>(y_[k] / g.dy());
    const int ox = gi / lnx;  // owning block column
    const int oy = gj / lny;
    int dx = ox - g.cx();
    int dy = oy - g.cy();
    // Shortest periodic block distance.
    if (dx > g.px() / 2) dx -= g.px();
    if (dx < -g.px() / 2) dx += g.px();
    if (dy > g.py() / 2) dy -= g.py();
    if (dy < -g.py() / 2) dy += g.py();
    assert(dx >= -1 && dx <= 1 && dy >= -1 && dy <= 1);
    if (dx == 0 && dy == 0) {
      ++k;
      continue;
    }
    auto& buf = out[static_cast<std::size_t>(dirIndex(dx, dy))];
    buf.insert(buf.end(), {x_[k], y_[k], u_[k], v_[k], w_[k]});
    x_[k] = x_.back(); x_.pop_back();
    y_[k] = y_.back(); y_.pop_back();
    u_[k] = u_.back(); u_.pop_back();
    v_[k] = v_.back(); v_.pop_back();
    w_[k] = w_.back(); w_.pop_back();
  }
}

void Species::addPacked(std::span<const double> data) {
  assert(data.size() % 5 == 0);
  for (std::size_t k = 0; k + 4 < data.size(); k += 5) {
    addParticle(data[k], data[k + 1], data[k + 2], data[k + 3], data[k + 4]);
  }
}

std::vector<double> Species::packAll() const {
  std::vector<double> out;
  out.reserve(5 * x_.size());
  for (std::size_t k = 0; k < x_.size(); ++k) {
    out.insert(out.end(), {x_[k], y_[k], u_[k], v_[k], w_[k]});
  }
  return out;
}

void Species::restoreFrom(std::span<const double> data) {
  x_.clear();
  y_.clear();
  u_.clear();
  v_.clear();
  w_.clear();
  addPacked(data);
}

double Species::kineticEnergy() const {
  double s = 0;
  for (std::size_t k = 0; k < x_.size(); ++k) {
    s += u_[k] * u_[k] + v_[k] * v_[k] + w_[k] * w_[k];
  }
  return 0.5 * p_.mass * weight_ * s;
}

double Species::momentum(int axis) const {
  const std::vector<double>& comp = axis == 0 ? u_ : (axis == 1 ? v_ : w_);
  double s = 0;
  for (const double c : comp) s += c;
  return p_.mass * weight_ * s;
}

}  // namespace cbsim::xpic
