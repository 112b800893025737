// The transient's capacitance refresh against its dense references.
//
// sim::CapSlots refills C in fixed slots after every accepted step, from
// the batch kernel's regions and one pow pair per junction
// (DeviceTable::caps).  Both must reproduce, bit for bit, what a dense
// build from NonlinearSystem::eval's DeviceOps and the scalar
// fill_device_caps compute.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "spice/dc.h"
#include "spice/tran.h"
#include "synth/oasys.h"
#include "synth/test_cases.h"
#include "synth/testbench.h"
#include "tech/builtin.h"

namespace oasys::sim {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// The dense C the transient refreshed before slots: explicit capacitors,
// then per device cgs, cgd, cgb, cdb, csb across their terminal pairs,
// from the DeviceOps a full eval at `x` reports.
num::RealMatrix dense_cap_matrix(const NonlinearSystem& sys,
                                 const std::vector<double>& x) {
  const MnaLayout& layout = sys.layout();
  std::vector<DeviceOp> ops;
  sys.eval(x, {}, nullptr, nullptr, &ops);
  num::RealMatrix cmat(layout.size(), layout.size());
  for (const auto& cap : sys.circuit().capacitors()) {
    const int ia = layout.node_index(cap.a);
    const int ib = layout.node_index(cap.b);
    const auto ua = static_cast<std::size_t>(ia);
    const auto ub = static_cast<std::size_t>(ib);
    if (ia >= 0) cmat(ua, ua) += cap.capacitance;
    if (ia >= 0 && ib >= 0) {
      cmat(ua, ub) -= cap.capacitance;
      cmat(ub, ua) -= cap.capacitance;
    }
    if (ib >= 0) cmat(ub, ub) += cap.capacitance;
  }
  const auto add2 = [&](ckt::NodeId a, ckt::NodeId b, double value) {
    const int ia = layout.node_index(a);
    const int ib = layout.node_index(b);
    const auto ua = static_cast<std::size_t>(ia);
    const auto ub = static_cast<std::size_t>(ib);
    if (ia >= 0) cmat(ua, ua) += value;
    if (ib >= 0) cmat(ub, ub) += value;
    if (ia >= 0 && ib >= 0) {
      cmat(ua, ub) -= value;
      cmat(ub, ua) -= value;
    }
  };
  const auto& mosfets = sys.circuit().mosfets();
  for (std::size_t k = 0; k < mosfets.size(); ++k) {
    const auto& m = mosfets[k];
    add2(m.g, m.s, ops[k].cgs);
    add2(m.g, m.d, ops[k].cgd);
    add2(m.g, m.b, ops[k].cgb);
    add2(m.d, m.b, ops[k].cdb);
    add2(m.s, m.b, ops[k].csb);
  }
  return cmat;
}

// Counts the slots that differ from `dense` in any bit, and the nonzeros
// of `dense` that no slot holds.
std::size_t mismatches(const CapSlots& slots, const num::RealMatrix& dense) {
  std::size_t bad = 0;
  const std::size_t n = dense.rows();
  EXPECT_EQ(slots.row_begin().size(), n + 1);
  for (std::size_t r = 0; r < n; ++r) {
    std::size_t t = slots.row_begin()[r];
    for (std::size_t c = 0; c < n; ++c) {
      if (t < slots.row_begin()[r + 1] && slots.col()[t] == c) {
        if (!same_bits(slots.value()[t], dense(r, c))) ++bad;
        ++t;
      } else if (dense(r, c) != 0.0) {
        ++bad;
      }
    }
  }
  return bad;
}

TEST(TranCaps, SlotsMatchTheDenseBuildAtEveryAcceptedStep) {
  // Paper case C's slew follower, the largest verification transient: at
  // every sample the run produced, from the operating point on, the slot
  // refresh equals the dense build entry for entry.
  const tech::Technology t = tech::five_micron();
  const synth::SynthesisResult r =
      synth::synthesize_opamp(t, synth::spec_case_c());
  ASSERT_TRUE(r.success());
  const synth::SlewBench sb = synth::slew_bench(*r.best(), t, 0.0);
  const OpResult op = dc_operating_point(sb.circuit, t);
  ASSERT_TRUE(op.converged);
  const TranResult tr = transient(sb.circuit, t, op, sb.tran);
  ASSERT_TRUE(tr.ok) << tr.error;
  ASSERT_GT(tr.states.size(), 50u);

  const NonlinearSystem sys(sb.circuit, t);
  CapSlots slots;
  slots.build(sys);
  DeviceTable devices;
  sys.build_device_table(&devices);
  for (std::size_t i = 0; i < tr.states.size(); ++i) {
    slots.refresh(sys, tr.states[i], &devices);
    EXPECT_EQ(mismatches(slots, dense_cap_matrix(sys, tr.states[i])), 0u)
        << "at sample " << i << ", t = " << tr.time[i];
  }
}

TEST(TranCaps, JunctionTableMatchesFillDeviceCapsOnThePaperCases) {
  // Every device of the three paper cases on both processes, open loop at
  // the offset null and as the slew follower at its operating point.
  for (const tech::Technology& t :
       {tech::five_micron(), tech::three_micron()}) {
    for (const core::OpAmpSpec& spec : synth::paper_test_cases()) {
      const synth::SynthesisResult r = synth::synthesize_opamp(t, spec);
      ASSERT_TRUE(r.success()) << spec.name;
      synth::OpenLoopBench bench(*r.best(), t);
      const synth::OffsetNull null = synth::measure_offset(&bench, t);
      ASSERT_TRUE(null.ok) << spec.name;
      const synth::SlewBench sb = synth::slew_bench(*r.best(), t, 0.0);
      const OpResult follower = dc_operating_point(sb.circuit, t);
      ASSERT_TRUE(follower.converged) << spec.name;

      const std::pair<const ckt::Circuit*, const OpResult*> fixtures[] = {
          {&bench.circuit, &null.op}, {&sb.circuit, &follower}};
      for (const auto& [circuit, op] : fixtures) {
        const NonlinearSystem sys(*circuit, t);
        DeviceTable tab;
        sys.build_device_table(&tab);
        EXPECT_LT(tab.junctions.size(), 2 * tab.size()) << spec.name;
        sys.evaluate_devices(op->solution, &tab);
        update_junction_caps(&tab, op->solution);
        const MnaLayout& layout = sys.layout();
        for (std::size_t k = 0; k < circuit->mosfets().size(); ++k) {
          const ckt::Mosfet& m = circuit->mosfets()[k];
          SCOPED_TRACE(spec.name + " on " + t.name + ", device " + m.name);
          DeviceOp ref;
          ref.region = tab.batch.region_at(k);
          fill_device_caps(t, m, layout.voltage(op->solution, m.d),
                           layout.voltage(op->solution, m.g),
                           layout.voltage(op->solution, m.s),
                           layout.voltage(op->solution, m.b), &ref);
          const MosCaps caps = tab.caps(k);
          EXPECT_TRUE(same_bits(caps.cgs, ref.cgs));
          EXPECT_TRUE(same_bits(caps.cgd, ref.cgd));
          EXPECT_TRUE(same_bits(caps.cgb, ref.cgb));
          EXPECT_TRUE(same_bits(caps.cdb, ref.cdb));
          EXPECT_TRUE(same_bits(caps.csb, ref.csb));
        }
      }
    }
  }
}

}  // namespace
}  // namespace oasys::sim
