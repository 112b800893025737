// Zero-allocation proof for the dense simulation kernels.
//
// Replaces global operator new/delete with counting versions, runs each
// kernel loop twice, and asserts the second pass performs zero heap
// allocations: the first pass grows the workspace buffers, after which the
// Newton iteration, the per-frequency AC kernel, its adjoint row, the
// open-loop AC walk and the transient's capacitance refresh must be
// steady-state allocation-free.  Everything inside a counted region is
// plain arithmetic on preallocated storage — no gtest assertions, no
// string building —
// except the bordered-solve check, which compares whole warm
// dc_operating_point calls that differ only in their iteration count.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <complex>
#include <cstdlib>
#include <new>
#include <vector>

#include "netlist/circuit.h"
#include "numeric/interpolate.h"
#include "numeric/linear.h"
#include "spice/ac.h"
#include "spice/dc.h"
#include "spice/measure.h"
#include "spice/tran.h"
#include "spice/workspace.h"
#include "tech/builtin.h"
#include "util/units.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = align;
  void* p = nullptr;
  if (posix_memalign(&p, align, size) != 0) throw std::bad_alloc();
  return p;
}

// Runs `body` with allocation counting enabled and returns the count.
template <typename Fn>
std::size_t count_allocations(const Fn& body) {
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  body();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace oasys::sim {
namespace {

using ckt::Circuit;
using ckt::Waveform;
using util::um;
using Cplx = std::complex<double>;

// A MOS amplifier with enough devices to exercise realistic stamping.
Circuit amp_circuit(const tech::Technology& t) {
  Circuit c;
  const auto vdd = c.node("vdd");
  const auto in = c.node("in");
  const auto mid = c.node("mid");
  const auto out = c.node("out");
  c.add_vsource("VDD", vdd, ckt::kGround, Waveform::dc(t.vdd));
  c.add_vsource("VIN", in, ckt::kGround, Waveform::ac(1.2, 1.0));
  c.add_mosfet("M1", mid, in, ckt::kGround, ckt::kGround,
               mos::MosType::kNmos, um(50.0), um(5.0));
  c.add_resistor("R1", vdd, mid, 50e3);
  c.add_mosfet("M2", out, mid, vdd, vdd, mos::MosType::kPmos, um(100.0),
               um(5.0));
  c.add_resistor("R2", out, ckt::kGround, 100e3);
  c.add_capacitor("CC", mid, out, 2e-12);
  c.add_capacitor("CL", out, ckt::kGround, 10e-12);
  return c;
}

TEST(AllocFree, BatchedDeviceEvalNewtonLoopIsAllocationFreeWhenWarm) {
  // One converged Newton solve from a flat start, exactly the kernel loop
  // dc_operating_point runs: eval, the LU planned on the first Jacobian and
  // refactored in that plan afterwards (sim::factor_jacobian), in-place
  // solve, damped update, convergence check.  The factor adopts the
  // Jacobian's storage by swap, so two buffers rotate between ws.jac and
  // ws.lu; a multi-iteration first pass primes both.  Building the
  // pattern, planning, re-biasing the device table, running the batch
  // kernel, and stamping from the flat arrays must all be allocation-free
  // once the table and workspace have their steady sizes.
  const tech::Technology t = tech::five_micron();
  const Circuit c = amp_circuit(t);
  NonlinearSystem sys(c, t);
  const std::size_t n = sys.layout().size();
  const std::size_t nv = sys.layout().num_node_unknowns();
  SimWorkspace ws;
  NonlinearSystem::EvalOptions eval_opts;
  std::vector<double> x(n);

  bool converged = false;
  const OpOptions opts;
  auto newton_pass = [&] {
    sys.build_device_table(&ws.devices);  // in-place refresh at steady size
    sys.jacobian_pattern(/*with_caps=*/false, &ws.pattern);
    ws.lu.use_plan(num::LuPlan{});  // each call plans afresh
    for (std::size_t i = 0; i < n; ++i) x[i] = 0.0;
    converged = false;
    const auto assemble = [&] {
      sys.eval(x, eval_opts, &ws.jac, &ws.residual, nullptr, &ws.devices);
    };
    for (int iter = 0; iter < opts.max_iterations && !converged; ++iter) {
      assemble();
      if (!factor_jacobian(&ws, assemble)) return;
      ws.step.resize(n);
      for (std::size_t i = 0; i < n; ++i) ws.step[i] = -ws.residual[i];
      ws.lu.solve(&ws.step);
      double max_dv = 0.0;
      for (std::size_t i = 0; i < nv; ++i) {
        max_dv = std::max(max_dv, std::abs(ws.step[i]));
      }
      double scale = 1.0;
      if (max_dv > opts.vlimit_step) scale = opts.vlimit_step / max_dv;
      for (std::size_t i = 0; i < n; ++i) x[i] += scale * ws.step[i];
      if (max_dv < opts.vntol) {
        sys.eval(x, eval_opts, nullptr, &ws.residual, nullptr, &ws.devices);
        double max_node_residual = 0.0;
        for (std::size_t i = 0; i < nv; ++i) {
          max_node_residual =
              std::max(max_node_residual, std::abs(ws.residual[i]));
        }
        if (max_node_residual < opts.abstol) converged = true;
      }
    }
  };

  newton_pass();  // grows the workspace buffers and the device table
  ASSERT_TRUE(converged);
  const std::size_t allocs = count_allocations(newton_pass);
  ASSERT_TRUE(converged);
  EXPECT_EQ(allocs, 0u)
      << "warm batched-device-eval Newton loop performed heap allocations";
}

// A resistor-loaded NMOS differential pair: the smallest fixture with the
// two input sources an offset border drives.
Circuit diff_pair_circuit(const tech::Technology& t) {
  Circuit c;
  const auto vdd = c.node("vdd");
  const auto inp = c.node("inp");
  const auto inn = c.node("inn");
  const auto d1 = c.node("d1");
  const auto out = c.node("out");
  const auto tail = c.node("tail");
  c.add_vsource("VDD", vdd, ckt::kGround, Waveform::dc(t.vdd));
  c.add_vsource("VIP", inp, ckt::kGround, Waveform::dc(2.5));
  c.add_vsource("VIN", inn, ckt::kGround, Waveform::dc(2.5));
  c.add_mosfet("M1", d1, inp, tail, ckt::kGround, mos::MosType::kNmos,
               um(50.0), um(5.0));
  c.add_mosfet("M2", out, inn, tail, ckt::kGround, mos::MosType::kNmos,
               um(50.0), um(5.0));
  c.add_resistor("R1", vdd, d1, 50e3);
  c.add_resistor("R2", vdd, out, 50e3);
  c.add_resistor("RT", tail, ckt::kGround, 100e3);
  return c;
}

TEST(AllocFree, BorderedNewtonIterationIsAllocationFreeWhenWarm) {
  // The bordered solve runs inside dc_operating_point, whose per-call
  // set-up allocates (the result vectors).  The iteration itself must
  // not: a warm solve that needs many iterations allocates exactly as
  // often as one that needs few.
  const tech::Technology t = tech::five_micron();
  const Circuit c = diff_pair_circuit(t);
  const MnaLayout layout(c);
  const ckt::NodeId out = *c.find_node("out");
  SimWorkspace ws;
  const OpResult op0 = dc_operating_point(c, t, {}, &ws);
  ASSERT_TRUE(op0.converged);

  OffsetBorder border;
  border.vpos = *c.find_vsource("VIP");
  border.vneg = *c.find_vsource("VIN");
  border.out = out;
  border.target = op0.voltage(layout, out) - 0.3;

  OpOptions far;  // from the vid = 0 operating point
  far.initial_guess = op0.solution;
  OffsetBorder far_border = border;
  OpResult far_result = dc_operating_point(c, t, far, &ws, &far_border);
  ASSERT_TRUE(far_result.converged);
  OpOptions near;  // from the null itself
  near.initial_guess = far_result.solution;
  OffsetBorder near_border = far_border;
  OpResult near_result = dc_operating_point(c, t, near, &ws, &near_border);
  ASSERT_TRUE(near_result.converged);
  ASSERT_GT(far_result.total_iterations, near_result.total_iterations + 1);

  const std::size_t far_allocs = count_allocations([&] {
    far_border = border;
    far_result = dc_operating_point(c, t, far, &ws, &far_border);
  });
  const std::size_t near_allocs = count_allocations([&] {
    near_border = border;
    near_border.vid = far_border.vid;
    near_result = dc_operating_point(c, t, near, &ws, &near_border);
  });
  ASSERT_TRUE(far_result.converged);
  ASSERT_TRUE(near_result.converged);
  EXPECT_EQ(far_allocs, near_allocs)
      << far_result.total_iterations << " vs "
      << near_result.total_iterations
      << " bordered iterations allocated differently";
}

TEST(AllocFree, AcSweepKernelLoopIsAllocationFreeWhenWarm) {
  const tech::Technology t = tech::five_micron();
  const Circuit c = amp_circuit(t);
  const OpResult op = dc_operating_point(c, t);
  ASSERT_TRUE(op.converged);
  const std::size_t n = MnaLayout(c).size();
  const std::vector<double> freqs = num::logspace(1.0, 1e8, 50);

  // The per-lane loop of ac_analysis on the shared kernel: re-stamp the
  // operating point, then one reused matrix + factorization, solutions
  // solved in place into preallocated slots.
  AcKernel kernel;
  AcPointScratch ws;
  std::vector<std::vector<Cplx>> solutions(freqs.size(),
                                           std::vector<Cplx>(n));
  bool failed = false;
  auto ac_pass = [&] {
    failed = kernel.assemble(c, op) != nullptr;
    for (std::size_t i = 0; i < freqs.size() && !failed; ++i) {
      failed = !kernel.solve(freqs[i], &ws, &solutions[i]);
    }
  };

  ac_pass();  // first pass grows the stamps, matrix, factor, pivot buffers
  ASSERT_FALSE(failed);
  const std::size_t allocs = count_allocations(ac_pass);
  ASSERT_FALSE(failed);
  EXPECT_EQ(allocs, 0u)
      << "warm AC sweep kernel loop performed heap allocations";
}

TEST(AllocFree, TransferRowLoopIsAllocationFreeWhenWarm) {
  const tech::Technology t = tech::five_micron();
  const Circuit c = amp_circuit(t);
  const OpResult op = dc_operating_point(c, t);
  ASSERT_TRUE(op.converged);
  const std::vector<double> freqs = num::logspace(1e3, 1e7, 25);
  const auto out = static_cast<std::size_t>(
      MnaLayout(c).node_index(*c.find_node("out")));

  // The noise loop's shape: one adjoint row per frequency, reusing one
  // point scratch and one row buffer.
  AcKernel kernel;
  AcPointScratch ws;
  std::vector<Cplx> u;
  double sink = 0.0;
  bool failed = false;
  auto noise_pass = [&] {
    failed = kernel.assemble(c, op) != nullptr;
    for (std::size_t i = 0; i < freqs.size() && !failed; ++i) {
      failed = !kernel.transfer_row(freqs[i], out, &ws, &u);
      if (!failed) sink += std::norm(u[out]);
    }
  };

  noise_pass();  // first pass sizes the kernel, scratch and row buffer
  ASSERT_FALSE(failed);
  const std::size_t allocs = count_allocations(noise_pass);
  ASSERT_FALSE(failed);
  EXPECT_GT(sink, 0.0);
  EXPECT_EQ(allocs, 0u)
      << "warm transfer_row loop performed heap allocations";
}

TEST(AllocFree, OpenLoopWalkIsAllocationFreeOnWarmScratch) {
  const tech::Technology t = tech::five_micron();
  const Circuit c = amp_circuit(t);
  const OpResult op = dc_operating_point(c, t);
  ASSERT_TRUE(op.converged);
  const std::vector<double> freqs = num::logspace(1.0, 1e9, 121);
  const AcProbe probe{*c.find_node("out")};

  // One lane's scratch, as yield keeps it: the first walk sizes the
  // kernel, factorization and series buffers; later walks reuse them.
  OpenLoopScratch scratch;
  OpenLoopMetrics walk = open_loop_metrics(c, op, freqs, probe, &scratch);
  ASSERT_TRUE(walk.ok) << walk.error;
  ASSERT_TRUE(walk.metrics.unity_gain_freq.has_value());
  const OpenLoopMetrics first = walk;
  const std::size_t allocs = count_allocations(
      [&] { walk = open_loop_metrics(c, op, freqs, probe, &scratch); });
  ASSERT_TRUE(walk.ok);
  EXPECT_EQ(walk.metrics.unity_gain_freq, first.metrics.unity_gain_freq);
  EXPECT_EQ(allocs, 0u) << "warm open-loop walk performed heap allocations";
}

TEST(AllocFree, TransientCapRefreshIsAllocationFreeWhenWarm) {
  // The refresh after every accepted transient step: re-bias the device
  // table, run the batch kernel, one pow pair per junction, and sum C's
  // slots.  After the slots are laid out, a pass over a whole run's
  // accepted states must not touch the allocator.
  const tech::Technology t = tech::five_micron();
  Circuit c = amp_circuit(t);
  c.vsource(*c.find_vsource("VIN")).wave =
      Waveform::pulse(1.2, 1.4, 1e-7, 1e-8, 1e-8, 1e-6, 2e-6);
  const OpResult op = dc_operating_point(c, t);
  ASSERT_TRUE(op.converged);
  TranOptions to;
  to.tstop = 2e-6;
  to.dt = 2e-8;
  const TranResult tr = transient(c, t, op, to);
  ASSERT_TRUE(tr.ok) << tr.error;

  const NonlinearSystem sys(c, t);
  CapSlots slots;
  slots.build(sys);
  DeviceTable devices;
  sys.build_device_table(&devices);
  const auto refresh_all = [&] {
    for (const std::vector<double>& x : tr.states) {
      slots.refresh(sys, x, &devices);
    }
  };
  refresh_all();
  const std::vector<double> first = slots.value();
  const std::size_t allocs = count_allocations(refresh_all);
  EXPECT_EQ(slots.value(), first);
  EXPECT_EQ(allocs, 0u) << "warm capacitance refresh performed heap "
                           "allocations";
}

}  // namespace
}  // namespace oasys::sim
