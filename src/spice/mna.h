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

// The distinct MOS diffusion junctions of a circuit: one entry per
// (type, node, bulk) triple among the devices' drains and sources.  Devices
// that share a triple see one reverse bias, so one pow pair
// (update_junction_caps) serves them all.  A junction tied to its bulk
// (node == bulk) sits at zero bias: its pair is 1 and never recomputed.
struct JunctionTable {
  std::vector<int> node, bulk;  // MNA indices; -1 = ground
  std::vector<double> sign;     // +1 NMOS, -1 PMOS (reverse-bias frame)
  std::vector<double> pb, mj, mjsw;
  // (1 + v/pb)^mj and (1 + v/pb)^mjsw at the last update_junction_caps,
  // v the reverse bias clamped at -pb/2 (mos::junction_cap's denominators).
  std::vector<double> pow_area, pow_sw;

  std::size_t size() const { return node.size(); }
  void clear() {
    for (auto* v : {&sign, &pb, &mj, &mjsw, &pow_area, &pow_sw}) v->clear();
    node.clear();
    bulk.clear();
  }
};

// The five bias-dependent capacitances of one MOS device [F].
struct MosCaps {
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
  // Capacitance constants: mos::gate_caps per device and Region (three
  // entries per device, indexed by the Region value), cj * diffusion area
  // and cjsw * diffusion perimeter, and the device's drain and source
  // junctions as indices into `junctions`.
  std::vector<mos::GateCaps> gate_caps;
  std::vector<double> cj_area, cjsw_perim;
  std::vector<std::uint32_t> drain_junction, source_junction;
  JunctionTable junctions;

  std::size_t size() const { return batch.size(); }

  // Capacitances of device k at its last evaluation: gate capacitances
  // for the region evaluate_core_batch found, junction capacitances from
  // the pow pairs of the last update_junction_caps.  Bit for bit what
  // fill_device_caps computes at that bias.
  MosCaps caps(std::size_t k) const {
    const mos::GateCaps& gc = gate_caps[3 * k + batch.region[k]];
    const std::uint32_t jd = drain_junction[k];
    const std::uint32_t js = source_junction[k];
    MosCaps c;
    c.cgs = gc.cgs;
    c.cgd = gc.cgd;
    c.cgb = gc.cgb;
    c.cdb = cj_area[k] / junctions.pow_area[jd] +
            cjsw_perim[k] / junctions.pow_sw[jd];
    c.csb = cj_area[k] / junctions.pow_area[js] +
            cjsw_perim[k] / junctions.pow_sw[js];
    return c;
  }
};

// Computes every junction's pow pair at the unknown vector `x`: two
// std::pow per distinct junction not tied to its bulk, in place of two per
// drain and two per source.
void update_junction_caps(DeviceTable* table, const std::vector<double>& x);

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

  // The device half of eval without any stamping: re-biases `devices` (a
  // table built for this circuit) at `x` and runs the batch kernel, so its
  // outputs and regions, and DeviceTable::caps after update_junction_caps,
  // are those an eval at `x` sees.  Allocation-free.
  void evaluate_devices(const std::vector<double>& x,
                        DeviceTable* devices) const;

  // Fills `table` with this circuit's MOS devices (constants, effective
  // parameters including per-device mismatch, capacitance constants and
  // the junction table, MNA node indices).  Validates every geometry —
  // throws std::invalid_argument naming the device on w <= 0, l <= 0, or
  // m < 1.  Only allocates when the table grows.
  void build_device_table(DeviceTable* table) const;

  // Structural pattern of the Jacobian eval stamps: every slot any bias can
  // fill (a cut-off device whose gm is exactly 0 keeps its slots), plus
  // every node diagonal (gmin).  With `with_caps`, also the slots of the
  // transient's capacitance matrix C: explicit capacitors and every
  // device's gate and junction capacitances.  A pure function of the
  // circuit; allocation-free once `pattern` is sized.
  void jacobian_pattern(bool with_caps, num::SparsePattern* pattern) const;

 private:
  const ckt::Circuit* circuit_;
  const tech::Technology* tech_;
  MnaLayout layout_;
};

// Fills DeviceOp capacitances (gate + junction) at the given bias: the
// scalar reference for DeviceTable::caps.
void fill_device_caps(const tech::Technology& t, const ckt::Mosfet& m,
                      double vd, double vg, double vs, double vb,
                      DeviceOp* op);

}  // namespace oasys::sim
