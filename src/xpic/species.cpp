#include "xpic/species.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>

namespace cbsim::xpic {

namespace {

constexpr std::size_t L = Species::kMoverLanes;

/// One double (LaneD) or int (LaneI) per particle of a group, and two
/// doubles (Pair).  GCC/clang vector extensions: lane-wise arithmetic
/// compiles to packed SSE2 on baseline x86-64 (wider vectors are split into
/// 16-byte pieces) and rounds each lane exactly like the scalar operation.
/// Without AVX, passing a vector wider than 16 bytes by value has an ABI
/// that changed between GCC versions (-Wpsabi), so lane vectors are passed
/// by reference only.
using LaneD = double __attribute__((vector_size(L * sizeof(double))));
using LaneI = int __attribute__((vector_size(L * sizeof(int))));
using Pair = double __attribute__((vector_size(2 * sizeof(double))));

/// floor(v) of every lane, for finite, int-ranged values.  Each lane is
/// the scalar truncate-and-adjust: t = trunc(v), minus one where v < t.
/// (Without SSE4.1's roundpd, GCC expands std::floor into a longer
/// mask-and-compare sequence.)  GCC 12 splits comparisons of vectors wider
/// than 16 bytes into scalar compares, so v < t is read from the bits of
/// d = t - v instead: d is exact, never -0.0, and positive exactly when
/// 0 - bits(d) has its top bit set.
void floorLanes(const LaneD& v, LaneD& out) {
  using LaneU =
      unsigned long long __attribute__((vector_size(L * sizeof(long long))));
  const LaneD t =
      __builtin_convertvector(__builtin_convertvector(v, LaneI), LaneD);
  const LaneU below = (0 - (LaneU)(t - v)) >> 63;  // 1 where v < t
  const LaneD one = LaneD{} + 1.0;
  out = t - (LaneD)((0 - below) & (LaneU)one);
}

/// Bilinear stencils of L particles: each lane's padded base-cell index
/// and the weights of its corners (i,j), (i+1,j), (i,j+1), (i+1,j+1) — the
/// order in which every gather sums and every deposit adds.
struct LaneStencil {
  std::array<std::size_t, L> cell{};
  std::array<LaneD, 4> w{};

  LaneStencil(const Grid2D& g, const LaneD& x, const LaneD& y) {
    const LaneD gx = x / g.dx() - 0.5;
    const LaneD gy = y / g.dy() - 0.5;
    LaneD fx{}, fy{};
    floorLanes(gx, fx);
    floorLanes(gy, fy);
    const LaneD wx = gx - fx;
    const LaneD wy = gy - fy;
    // Padded (i, j) = (gi - x0 + 1, gj - y0 + 1); integers well inside
    // 2^53, so the double arithmetic is exact.
    const LaneD i = fx - (g.x0() - 1);
    const LaneD j = fy - (g.y0() - 1);
    const LaneI c = __builtin_convertvector(j * (g.lnx() + 2) + i, LaneI);
    for (std::size_t l = 0; l < L; ++l) {
      assert(i[l] >= 0 && i[l] <= g.lnx() && j[l] >= 0 && j[l] <= g.lny());
      cell[l] = static_cast<std::size_t>(c[l]);
    }
    w = {(1.0 - wx) * (1.0 - wy), wx * (1.0 - wy), (1.0 - wx) * wy, wx * wy};
  }

  /// Bilinear gather of component `k` of every lane from a block of
  /// `stride` doubles per padded cell.
  void gather(const double* block, std::size_t stride, std::size_t row,
              std::size_t k, LaneD& out) const {
    std::array<LaneD, 4> c{};
    for (std::size_t l = 0; l < L; ++l) {
      const double* p = block + stride * cell[l] + k;
      c[0][l] = p[0];
      c[1][l] = p[stride];
      c[2][l] = p[stride * row];
      c[3][l] = p[stride * (row + 1)];
    }
    out = w[0] * c[0] + w[1] * c[1] + w[2] * c[2] + w[3] * c[3];
  }
};

/// Lanes [0, live) of `out` from src[0, live); the spare lanes repeat
/// src[0], a real particle, so their stencils stay on the block.  A full
/// group is one unaligned vector load: filling lanes one by one goes
/// through the stack and stalls on store forwarding.
void loadLanes(const double* src, std::size_t live, LaneD& out) {
  if (live == L) {
    std::memcpy(&out, src, sizeof out);
    return;
  }
  for (std::size_t l = 0; l < L; ++l) out[l] = src[l < live ? l : 0];
}

/// dst[0, live) from lanes [0, live) of `in`.
void storeLanes(const LaneD& in, std::size_t live, double* dst) {
  if (live == L) {
    std::memcpy(dst, &in, sizeof in);
    return;
  }
  for (std::size_t l = 0; l < live; ++l) dst[l] = in[l];
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

/// Advances the `live` <= L particles at x..w[0, live), one per lane.
/// Each lane runs exactly the scalar predictor-corrector chain.
void advance(const Grid2D& g, const MoverStep& m, const double* em,
             std::size_t live, double* x, double* y, double* u, double* v,
             double* w) {
  constexpr std::size_t S = FieldArrays::kEMStride;
  const auto row = static_cast<std::size_t>(g.lnx() + 2);
  LaneD x0{}, y0{}, u0{}, v0{}, w0{};
  loadLanes(x, live, x0);
  loadLanes(y, live, y0);
  loadLanes(u, live, u0);
  loadLanes(v, live, v0);
  loadLanes(w, live, w0);
  LaneD xb = x0, yb = y0, ub = u0, vb = v0, wb = w0;
  for (int it = 0; it < m.iters; ++it) {
    const LaneStencil s(g, xb, yb);
    std::array<LaneD, S> f{};  // ex ey ez bx by bz
    for (std::size_t k = 0; k < S; ++k) s.gather(em, S, row, k, f[k]);
    // Exact solution of v~ = v' + v~ x t  with v' = v^n + qdt/2m E,
    // t = qdt/2m B (the implicit-moment rotation).
    const LaneD vx = u0 + m.qdt2m * f[0];
    const LaneD vy = v0 + m.qdt2m * f[1];
    const LaneD vz = w0 + m.qdt2m * f[2];
    const LaneD tx = m.qdt2m * f[3], ty = m.qdt2m * f[4], tz = m.qdt2m * f[5];
    const LaneD tsq = tx * tx + ty * ty + tz * tz;
    const LaneD vdt = vx * tx + vy * ty + vz * tz;
    const LaneD inv = 1.0 / (1.0 + tsq);
    ub = (vx + (vy * tz - vz * ty) + vdt * tx) * inv;
    vb = (vy + (vz * tx - vx * tz) + vdt * ty) * inv;
    wb = (vz + (vx * ty - vy * tx) + vdt * tz) * inv;
    // Half-step position for the next field gather; stays within the
    // ghost ring for CFL-respecting time steps.
    xb = x0 + 0.5 * m.dt * ub;
    yb = y0 + 0.5 * m.dt * vb;
  }
  storeLanes(2.0 * ub - u0, live, u);
  storeLanes(2.0 * vb - v0, live, v);
  storeLanes(2.0 * wb - w0, live, w);
  const LaneD xn = x0 + m.dt * ub, yn = y0 + m.dt * vb;
  for (std::size_t l = 0; l < live; ++l) {
    x[l] = wrap(xn[l], g.lxGlobal());
    y[l] = wrap(yn[l], g.lyGlobal());
  }
}

/// c[0, 2) += d, as one packed add.
void addPair(double* c, const Pair& d) {
  Pair a{};
  std::memcpy(&a, c, sizeof a);
  a += d;
  std::memcpy(c, &a, sizeof a);
}

}  // namespace

double interpolate(const Field2D& f, const Grid2D& g, double x, double y) {
  // Every lane holds (x, y); lane 0 is the answer.
  LaneD xs{}, ys{};
  loadLanes(&x, 1, xs);
  loadLanes(&y, 1, ys);
  LaneD out{};
  LaneStencil(g, xs, ys)
      .gather(f.raw().data(), 1, static_cast<std::size_t>(g.lnx() + 2), 0, out);
  return out[0];
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
  const std::size_t n = x_.size();
  for (std::size_t k = 0; k < n; k += L) {
    advance(g, m, em.data(), std::min(L, n - k), &x_[k], &y_[k], &u_[k],
            &v_[k], &w_[k]);
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
  const std::size_t n = x_.size();
  for (std::size_t k = 0; k < n; k += L) {
    // The group's stencils at once, then each particle's moments in
    // particle order, so every cell still sums its particles in order.
    // Packing [rho jx] and [jy jz] keeps each element's product.
    const std::size_t live = std::min(L, n - k);
    LaneD xs{}, ys{};
    loadLanes(&x_[k], live, xs);
    loadLanes(&y_[k], live, ys);
    const LaneStencil s(g, xs, ys);
    for (std::size_t l = 0; l < live; ++l) {
      const std::size_t p = k + l;
      const Pair rj = {qw, qw * u_[p]};
      const Pair yz = {qw * v_[p], qw * w_[p]};
      double* c = moments.data() + S * s.cell[l];
      for (std::size_t q = 0; q < 4; ++q) {
        const double wq = s.w[q][l];
        double* cq = c + corner[q];
        addPair(cq, wq * rj);
        addPair(cq + 2, wq * yz);
        cq[4] += wq * chiw;
      }
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
  const int x0 = g.x0(), y0 = g.y0();
  // A particle whose cell (gi, gj) lies in the block stays.  That is
  // exactly the direction code's (0, 0): x0 = cx * lnx, so gi / lnx == cx
  // there.  Only leavers run the integer divisions.
  std::size_t k = 0;
  while (k < x_.size()) {
    if (k + L <= x_.size()) {
      // L stayers in a row are L steps of ++k below.
      LaneD xs{}, ys{};
      loadLanes(&x_[k], L, xs);
      loadLanes(&y_[k], L, ys);
      const LaneI gi = __builtin_convertvector(xs / g.dx(), LaneI);
      const LaneI gj = __builtin_convertvector(ys / g.dy(), LaneI);
      // Negative in a lane whose cell lies outside the block (sign bits
      // rather than comparisons, see floorLanes).
      const LaneI outside = (gi - x0) | (x0 + lnx - 1 - gi) | (gj - y0) |
                            (y0 + lny - 1 - gj);
      bool all = true;
      for (std::size_t l = 0; l < L; ++l) all = all && outside[l] >= 0;
      if (all) {
        k += L;
        continue;
      }
    }
    for (std::size_t step = 0; step < L && k < x_.size(); ++step) {
      const int gi = static_cast<int>(x_[k] / g.dx());
      const int gj = static_cast<int>(y_[k] / g.dy());
      if (gi >= x0 && gi < x0 + lnx && gj >= y0 && gj < y0 + lny) {
        ++k;
        continue;
      }
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
