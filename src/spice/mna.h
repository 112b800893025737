// Modified nodal analysis (MNA) assembly shared by the DC, AC, and
// transient analyses.
//
// Unknown ordering: node voltages for nodes 1..N-1 (ground excluded),
// followed by one branch current per independent voltage source.  The
// branch current flows from the source's `pos` terminal through the source
// to `neg`.
//
// The nonlinear residual convention is f(x) = 0 where each node equation
// sums the currents *leaving* the node.  Newton solves J dx = -f.
#pragma once

#include <cstdint>
#include <vector>

#include "mos/level1_batch.h"
#include "netlist/circuit.h"
#include "numeric/matrix.h"
#include "numeric/sparse_lu.h"
#include "tech/technology.h"

namespace oasys::sim {

// Index map from circuit entities to MNA unknowns.
class MnaLayout {
 public:
  MnaLayout() = default;  // empty (size 0) until assigned from a circuit
  explicit MnaLayout(const ckt::Circuit& c);

  std::size_t size() const { return size_; }
  std::size_t num_node_unknowns() const { return num_nodes_ - 1; }

  // Row/column of a node voltage; -1 for ground.
  int node_index(ckt::NodeId n) const;
  // Row/column of a voltage-source branch current.
  std::size_t branch_index(std::size_t vsource_pos) const;

  // Voltage of node `n` given an unknown vector (0 for ground).
  double voltage(const std::vector<double>& x, ckt::NodeId n) const;
  std::complex<double> voltage(const std::vector<std::complex<double>>& x,
                               ckt::NodeId n) const;

 private:
  std::size_t num_nodes_ = 0;
  std::size_t num_vsources_ = 0;
  std::size_t size_ = 0;
};

// Per-MOSFET operating information captured during an evaluation; parallel
// to Circuit::mosfets().  Terminal-frame derivatives are kept so the AC
// analysis can stamp the small-signal model without re-deriving it.
struct DeviceOp {
  mos::Region region = mos::Region::kCutoff;
  double vgs = 0.0, vds = 0.0, vbs = 0.0;  // device-frame (sign-corrected)
  double id = 0.0;                         // magnitude of drain current
  double vth = 0.0, vov = 0.0, vdsat = 0.0;
  double gm = 0.0, gds = 0.0, gmb = 0.0;   // magnitudes
  // Terminal-frame current and derivatives (see mos::TerminalEval).
  double id_ds = 0.0;
  double di_dvg = 0.0, di_dvd = 0.0, di_dvs = 0.0, di_dvb = 0.0;
  // Small-signal capacitances at this bias [F].
  double cgs = 0.0, cgd = 0.0, cgb = 0.0, cdb = 0.0, csb = 0.0;
};

// Structure-of-arrays MOS device table, the input of the batch kernel.
// Built once per (circuit, solve) by NonlinearSystem::build_device_table —
// device constants and MNA node indices in Circuit::mosfets() order — then
// re-biased in place every eval.  Lives inside sim::SimWorkspace so the
// arrays persist across Newton iterations, timesteps, and warm-started
// sweep points without reallocating (resize only grows capacity).
struct DeviceTable {
  mos::CoreEvalBatch batch;           // constants + per-eval bias/results
  std::vector<double> sign;           // +1 NMOS, -1 PMOS (frame flip)
  std::vector<int> d, g, s, b;        // MNA node indices; -1 = ground
  std::vector<std::uint8_t> swapped;  // per-eval scratch: D/S exchanged

  std::size_t size() const { return batch.size(); }
};

// Assembles residual/Jacobian for the resistive (non-capacitive) part of
// the circuit.  Capacitor companion models are added by the transient
// analysis on top of this.
class NonlinearSystem {
 public:
  NonlinearSystem(const ckt::Circuit& c, const tech::Technology& t);

  const MnaLayout& layout() const { return layout_; }
  const ckt::Circuit& circuit() const { return *circuit_; }
  const tech::Technology& technology() const { return *tech_; }

  struct EvalOptions {
    double source_scale = 1.0;  // multiplies every independent source
    double gmin = 1e-12;        // shunt conductance to ground on every node
    double time = -1.0;         // <0: DC values; >=0: waveform value(time)
  };

  // Computes f(x) into `residual` and J(x) into `jac` (either may be null).
  // When `device_ops` is non-null it is resized/filled with per-MOSFET
  // operating info including bias-dependent capacitances.
  //
  // MOS devices go through the SoA kernel (mos::evaluate_core_batch) once
  // per call, and their stamps are applied from the flat outputs in device
  // index order.  `devices` is a table built by build_device_table() for
  // this circuit (std::logic_error on a size mismatch); its bias arrays and
  // swapped flags are rewritten.  When it is null, a table is built for
  // this call alone — that allocates, so solvers pass their workspace's.
  void eval(const std::vector<double>& x, const EvalOptions& opts,
            num::RealMatrix* jac, std::vector<double>* residual,
            std::vector<DeviceOp>* device_ops = nullptr,
            DeviceTable* devices = nullptr) const;

  // Fills `table` with this circuit's MOS devices (constants, effective
  // parameters including per-device mismatch, MNA node indices).  Validates
  // every geometry — throws std::invalid_argument naming the device on
  // w <= 0, l <= 0, or m < 1.  Only allocates when the table grows.
  void build_device_table(DeviceTable* table) const;

  // Structural pattern of the Jacobian eval stamps: every slot any bias can
  // fill (a cut-off device whose gm is exactly 0 keeps its slots), plus
  // every node diagonal (gmin).  With `with_caps`, also the slots of the
  // transient's capacitance matrix C: explicit capacitors and every
  // device's gate and junction capacitances.  A pure function of the
  // circuit; allocation-free once `pattern` is sized.
  void jacobian_pattern(bool with_caps, num::SparsePattern* pattern) const;

  // Lumped linear capacitance matrix contribution C (for transient): stamps
  // the circuit's explicit capacitors only.  Device capacitances are
  // bias-dependent and handled by the caller via DeviceOp.
  void stamp_linear_caps(num::RealMatrix* cmat) const;

 private:
  const ckt::Circuit* circuit_;
  const tech::Technology* tech_;
  MnaLayout layout_;
};

// Fills DeviceOp capacitances (gate + junction) at the given bias.
void fill_device_caps(const tech::Technology& t, const ckt::Mosfet& m,
                      double vd, double vg, double vs, double vb,
                      DeviceOp* op);

}  // namespace oasys::sim
