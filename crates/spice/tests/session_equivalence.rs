//! Equivalence suite: a persistent [`Session`] (warm starts, reused
//! workspace, AC scratch, in-place device swaps) must reproduce one-shot
//! throwaway sessions — and, for AC, an independent per-point reference
//! solver — on real circuits: the parsed inverter-chain netlist of
//! `examples/netlist_sim.rs` and a 6T SRAM cell. Property tests cover
//! `swap_devices` + re-solve (DC) and resample→`ac_batch` (AC) against
//! fresh elaborations across random mismatch draws, and a poisoned device
//! must fail its own sample without leaking into the next one. DC sweeps,
//! whose points start from a polynomial extrapolation of the points before
//! them, must match a cold solve at every point, keep the branch that
//! previous-point continuation follows on a bistable cell, and recover
//! through the fallback order when the extrapolation overshoots.

use mosfet::{
    vs::VsModel, Bias, Charges, Geometry, MosfetModel, Polarity, StatParam, VariationDelta,
};
use numerics::complex::{CMatrix, C64};
use spice::engine::{newton, Mode, Workspace};
use spice::{parser, Circuit, NodeId, Session, SpiceError, TranOptions, Waveform};

/// The three-stage inverter chain from `examples/netlist_sim.rs`.
const NETLIST: &str = "
* three-stage inverter chain, VS 40nm models
VDD vdd 0 DC 0.9
VIN in 0 PULSE(0 0.9 100p 15p 15p 600p 2n)

* stage 1
MP1 n1 in vdd vdd vsp W=600n L=40n
MN1 n1 in 0 0 vsn W=300n L=40n
C1 n1 0 0.5f

* stage 2
MP2 n2 n1 vdd vdd vsp W=600n L=40n
MN2 n2 n1 0 0 vsn W=300n L=40n
C2 n2 0 0.5f

* stage 3
MP3 out n2 vdd vdd vsp W=600n L=40n
MN3 out n2 0 0 vsn W=300n L=40n
CL out 0 1f
.end
";

const VDD: f64 = 0.9;

/// Newton converges the update norm below 1e-7 V; warm-started and cold
/// solves may approach the fixed point along different paths.
const TOL_V: f64 = 1e-6;

fn chain() -> Circuit {
    parser::parse(NETLIST).expect("bundled netlist parses")
}

/// One-shot reference: a fresh throwaway session per call, cold-started —
/// what the deprecated `Circuit::*` shims used to do.
fn one_shot(c: &Circuit) -> Session {
    Session::elaborate(c.clone()).expect("reference circuit elaborates")
}

/// Independent per-point AC reference: linearize at `x_op`, then build and
/// solve a fresh `G + jωC` system per frequency — the pre-workspace
/// architecture, kept here as the oracle for the batched/workspace path.
fn ac_reference_per_point(c: &Circuit, x_op: &[f64], source: &str, freqs: &[f64]) -> Vec<Vec<C64>> {
    let lin = c.linearize(x_op);
    let n = lin.g.rows();
    let nn = c.node_count() - 1;
    let src_idx = c.vsource_index(source).expect("source exists");
    let mut b = vec![C64::ZERO; n];
    b[nn + src_idx] = C64::ONE;
    freqs
        .iter()
        .map(|&f| {
            let omega = 2.0 * std::f64::consts::PI * f;
            CMatrix::from_gc(&lin.g, &lin.c, omega)
                .solve(&b)
                .expect("reference AC point solves")
        })
        .collect()
}

// Pull-down and access geometries (W, L in nm) of the cell.
const GN: (f64, f64) = (150.0, 40.0);
const GA: (f64, f64) = (100.0, 40.0);

fn nmos(d: VariationDelta, (w, l): (f64, f64)) -> Box<dyn MosfetModel> {
    Box::new(VsModel::with_variation(
        mosfet::vs::VsParams::nmos_40nm(),
        Polarity::Nmos,
        Geometry::from_nm(w, l),
        d,
    ))
}

fn pmos(d: VariationDelta) -> Box<dyn MosfetModel> {
    Box::new(VsModel::with_variation(
        mosfet::vs::VsParams::pmos_40nm(),
        Polarity::Pmos,
        Geometry::from_nm(80.0, 40.0),
        d,
    ))
}

/// A 6T SRAM cell wired for READ (word line high, bit lines at Vdd),
/// mirroring `circuits::sram::full_cell`.
fn sram_cell(deltas: &[VariationDelta; 6]) -> (Circuit, NodeId, NodeId) {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let l = c.node("l");
    let r = c.node("r");
    let bl = c.node("bl");
    let blb = c.node("blb");
    let wl = c.node("wl");
    c.vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(VDD));
    c.vsource("VBL", bl, Circuit::GROUND, Waveform::dc(VDD));
    c.vsource("VBLB", blb, Circuit::GROUND, Waveform::dc(VDD));
    c.vsource("VWL", wl, Circuit::GROUND, Waveform::dc(VDD));
    c.mosfet("PU1", l, r, vdd, vdd, pmos(deltas[0]));
    c.mosfet(
        "PD1",
        l,
        r,
        Circuit::GROUND,
        Circuit::GROUND,
        nmos(deltas[1], GN),
    );
    c.mosfet("PG1", bl, wl, l, Circuit::GROUND, nmos(deltas[2], GA));
    c.mosfet("PU2", r, l, vdd, vdd, pmos(deltas[3]));
    c.mosfet(
        "PD2",
        r,
        l,
        Circuit::GROUND,
        Circuit::GROUND,
        nmos(deltas[4], GN),
    );
    c.mosfet("PG2", blb, wl, r, Circuit::GROUND, nmos(deltas[5], GA));
    (c, l, r)
}

fn all_nodes(c: &Circuit) -> Vec<NodeId> {
    // Probe every interned node by walking the element terminals.
    let mut v: Vec<NodeId> = c.elements().iter().flat_map(|e| e.nodes()).collect();
    v.sort();
    v.dedup();
    v
}

#[test]
fn chain_dc_matches_one_shot() {
    let c = chain();
    let reference = one_shot(&c).dc_owned().unwrap();
    let mut s = Session::elaborate(c.clone()).unwrap();
    // Run twice: the second solve is warm-started and must land on the
    // same operating point.
    for pass in 0..2 {
        let op = s.dc_owned().unwrap();
        for &n in &all_nodes(&c) {
            assert!(
                (op.voltage(n) - reference.voltage(n)).abs() < TOL_V,
                "pass {pass}, node {}: {} vs {}",
                c.node_name(n),
                op.voltage(n),
                reference.voltage(n)
            );
        }
    }
}

#[test]
fn chain_sweep_matches_one_shot() {
    let c = chain();
    let values: Vec<f64> = (0..19).map(|i| VDD * i as f64 / 18.0).collect();
    let reference = one_shot(&c).dc_sweep_owned("VIN", &values).unwrap();
    let mut s = Session::elaborate(c.clone()).unwrap();
    // Warm the session with an unrelated solve first.
    let _ = s.dc_owned().unwrap();
    let out = c.find_node("out").unwrap();
    let sweep = s.dc_sweep_owned("VIN", &values).unwrap();
    for (a, b) in sweep.voltages(out).iter().zip(reference.voltages(out)) {
        assert!((a - b).abs() < TOL_V, "{a} vs {b}");
    }
}

#[test]
fn chain_tran_matches_one_shot() {
    let c = chain();
    let opts = TranOptions::new(1.2e-9, 3e-12);
    let reference = one_shot(&c).tran_owned(&opts).unwrap();
    let mut s = Session::elaborate(c.clone()).unwrap();
    // Precede the transient with other runs so the session state is "hot".
    let _ = s.dc_owned().unwrap();
    let res = s.tran_owned(&opts).unwrap();
    assert_eq!(res.times().len(), reference.times().len());
    let out = c.find_node("out").unwrap();
    for (a, b) in res.voltages(out).iter().zip(reference.voltages(out)) {
        assert!((a - b).abs() < 1e-5, "{a} vs {b}");
    }
}

// ---- AC equivalence: workspace/batched path vs per-point reference ------

#[test]
fn chain_ac_matches_reference_per_point() {
    // A non-integer decade span, so the sweep exercises the clamped
    // log_sweep endpoint too.
    let c = chain();
    let freqs = spice::ac::log_sweep(1e6, 5e10, 4);
    assert_eq!(*freqs.last().unwrap(), 5e10);

    let op = one_shot(&c).dc_owned().unwrap();
    let reference = ac_reference_per_point(&c, op.raw(), "VIN", &freqs);

    let mut s = Session::elaborate(c.clone()).unwrap();
    let ac = s.ac_owned("VIN", &freqs, &[]).unwrap();
    // Repeat through the same (now warm) workspace: identical sweep.
    let ac2 = s.ac_owned("VIN", &freqs, &[]).unwrap();
    for &node in &all_nodes(&c) {
        let Some(i) = node.unknown() else { continue };
        for (k, point) in reference.iter().enumerate() {
            for probe in [&ac, &ac2] {
                let got = probe.voltages(node)[k];
                let want = point[i];
                assert!(
                    (got - want).abs() < 1e-9 * want.abs().max(1e-9),
                    "node {}, {} Hz: {:?} vs {:?}",
                    c.node_name(node),
                    freqs[k],
                    got,
                    want
                );
            }
        }
    }
}

#[test]
fn sram_dc_and_ac_match_one_shot() {
    let deltas = [VariationDelta::default(); 6];
    let (c, l, r) = sram_cell(&deltas);
    let guess = [(l, 0.0), (r, VDD)];
    let reference_op = one_shot(&c).dc_owned_with_guess(&guess).unwrap();
    let freqs = [1e6, 1e9];
    let reference_ac = ac_reference_per_point(&c, reference_op.raw(), "VBL", &freqs);

    let mut s = Session::elaborate(c.clone()).unwrap();
    let op = s.dc_owned_with_guess(&guess).unwrap();
    assert!((op.voltage(l) - reference_op.voltage(l)).abs() < TOL_V);
    assert!((op.voltage(r) - reference_op.voltage(r)).abs() < TOL_V);
    let ac = s.ac_owned("VBL", &freqs, &guess).unwrap();
    let li = l.unknown().unwrap();
    for (a, point) in ac.magnitudes(l).iter().zip(&reference_ac) {
        let b = point[li].abs();
        // The AC solution is linear in the operating point; tiny op-point
        // differences are amplified through subthreshold conductances.
        assert!((a - b).abs() < 1e-3 * b.max(1e-9), "{a} vs {b}");
    }
}

/// SplitMix64: a tiny deterministic generator for test-case sampling.
struct TestRng(u64);

impl TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + (hi - lo) * u
    }
}

/// Random threshold-voltage deltas for all six cell devices.
fn random_deltas(rng: &mut TestRng) -> [VariationDelta; 6] {
    let mut deltas = [VariationDelta::default(); 6];
    for d in &mut deltas {
        *d = VariationDelta::single(StatParam::Vt0, rng.range(-0.04, 0.04));
    }
    deltas
}

/// The six `(name, model)` swaps matching [`sram_cell`]'s instances.
fn cell_swaps(c_fresh: &Circuit) -> Vec<(String, Box<dyn MosfetModel>)> {
    let mut swaps = Vec::new();
    for e in c_fresh.elements() {
        if let spice::elements::Element::Mosfet { name, model, .. } = e {
            swaps.push((name.clone(), model.clone_box()));
        }
    }
    swaps
}

/// Property: swapping devices into a live session and re-solving equals a
/// fresh elaboration of the netlist built with those devices — across many
/// random mismatch draws, with the session accumulating warm starts.
#[test]
fn swapped_session_equals_fresh_elaboration_property() {
    let mut rng = TestRng(0xe95_0051);
    let nominal = [VariationDelta::default(); 6];
    let (c0, l, r) = sram_cell(&nominal);
    let mut session = Session::elaborate(c0).unwrap();
    let guess = [(l, 0.0), (r, VDD)];

    for trial in 0..12 {
        let deltas = random_deltas(&mut rng);
        // In-place swap on the persistent session (warm-started solve)...
        let (c_fresh, _, _) = sram_cell(&deltas);
        assert_eq!(session.swap_devices(cell_swaps(&c_fresh)).unwrap(), 6);
        let warm = session.dc_owned_with_guess(&guess).unwrap();
        // ...must match a cold fresh elaboration of the same netlist.
        let cold = Session::elaborate(c_fresh)
            .unwrap()
            .dc_owned_with_guess(&guess)
            .unwrap();
        for &n in &[l, r] {
            assert!(
                (warm.voltage(n) - cold.voltage(n)).abs() < TOL_V,
                "trial {trial}: warm {} vs cold {}",
                warm.voltage(n),
                cold.voltage(n)
            );
        }
    }
}

/// A model whose current is NaN at every bias — a poisoned draw that can
/// never converge.
#[derive(Debug, Clone)]
struct NanModel;

impl MosfetModel for NanModel {
    fn polarity(&self) -> Polarity {
        Polarity::Nmos
    }
    fn geometry(&self) -> Geometry {
        Geometry::from_nm(150.0, 40.0)
    }
    fn ids(&self, _bias: Bias) -> f64 {
        f64::NAN
    }
    fn charges(&self, _bias: Bias) -> Charges {
        Charges::default()
    }
    fn name(&self) -> &'static str {
        "nan"
    }
    fn clone_box(&self) -> Box<dyn MosfetModel> {
        Box::new(self.clone())
    }
}

fn bits(op: &spice::DcResult) -> Vec<u64> {
    op.raw().iter().map(|x| x.to_bits()).collect()
}

/// Failure isolation on the served DC sample (swap, cold start, solve
/// from the guess): a poisoned device fails its sample with a typed
/// error, and the next sample on the same session is bit-identical to a
/// fresh session's cold solve of the same devices.
#[test]
fn poisoned_sample_fails_typed_and_the_next_sample_is_cold_pure() {
    let (c0, l, r) = sram_cell(&[VariationDelta::default(); 6]);
    let mut session = Session::elaborate(c0).unwrap();
    let guess = [(l, 0.0), (r, VDD)];
    session.dc_owned_with_guess(&guess).unwrap();

    let poison: Box<dyn MosfetModel> = Box::new(NanModel);
    session.swap_devices([("PD1", poison)]).unwrap();
    session.invalidate_warm_start();
    let err = session.dc_owned_with_guess(&guess).unwrap_err();
    assert!(
        matches!(
            err,
            SpiceError::NoConvergence {
                analysis: "dc op",
                ..
            }
        ),
        "{err}"
    );

    let deltas = random_deltas(&mut TestRng(0x0bad_1a2e));
    let (c_next, _, _) = sram_cell(&deltas);
    session.swap_devices(cell_swaps(&c_next)).unwrap();
    session.invalidate_warm_start();
    let next = session.dc_owned_with_guess(&guess).unwrap();
    let cold = Session::elaborate(c_next)
        .unwrap()
        .dc_owned_with_guess(&guess)
        .unwrap();
    assert_eq!(bits(&next), bits(&cold), "the poisoned sample leaked");
}

/// Property: the batched AC path (`swap_devices` + `ac_batch`, warm
/// operating points, reused workspace) equals the per-point reference
/// computed on a fresh cold elaboration of the same devices — the paper's
/// "SRAM AC" Monte Carlo inner loop, across random mismatch draws.
#[test]
fn sram_ac_batch_equals_per_point_reference_across_resamples() {
    let mut rng = TestRng(0xac_5eed);
    let nominal = [VariationDelta::default(); 6];
    let (c0, l, r) = sram_cell(&nominal);
    let mut session = Session::elaborate(c0).unwrap();
    let guess = [(l, 0.0), (r, VDD)];
    // Non-integer decade span ending exactly at the stop frequency.
    let freqs = spice::ac::log_sweep(1e6, 4e10, 3);
    assert_eq!(*freqs.last().unwrap(), 4e10);
    let li = l.unknown().unwrap();

    for trial in 0..8 {
        let deltas = random_deltas(&mut rng);
        let (c_fresh, _, _) = sram_cell(&deltas);
        assert_eq!(session.swap_devices(cell_swaps(&c_fresh)).unwrap(), 6);
        let batched = session.ac_batch("VBL", &freqs, &guess).unwrap();

        // Reference: cold guessed operating point + per-point solves on an
        // independent elaboration of the same sample.
        let cold_op = Session::elaborate(c_fresh.clone())
            .unwrap()
            .dc_owned_with_guess(&guess)
            .unwrap();
        let reference = ac_reference_per_point(&c_fresh, cold_op.raw(), "VBL", &freqs);

        for (k, point) in reference.iter().enumerate() {
            let got = batched.magnitudes(l)[k];
            let want = point[li].abs();
            // Warm vs cold operating points differ at the Newton tolerance;
            // the linearization amplifies that through subthreshold
            // conductances, hence the relative 1e-3 band (as for the DC+AC
            // one-shot comparison above).
            assert!(
                (got - want).abs() < 1e-3 * want.max(1e-9),
                "trial {trial}, {} Hz: {got} vs {want}",
                freqs[k]
            );
        }
    }
}

// ---- DC sweeps: predicted starts vs pointwise cold solves ---------------

/// Pointwise cold reference of a sweep: at every value, a fresh session of
/// `c` with `source` set to it, solved by `dc_owned`.
fn cold_points(c: &Circuit, source: &str, values: &[f64]) -> Vec<spice::DcResult> {
    values
        .iter()
        .map(|&v| {
            let mut c = c.clone();
            c.set_vsource(source, Waveform::dc(v)).unwrap();
            Session::elaborate(c).unwrap().dc_owned().unwrap()
        })
        .collect()
}

/// Asserts that every node of `c` agrees between `sweep` and `reference`
/// at every point to [`TOL_V`].
fn assert_points_match(
    c: &Circuit,
    sweep: &spice::SweepResult,
    reference: &[spice::DcResult],
    what: &str,
) {
    assert_eq!(sweep.points.len(), reference.len());
    for (k, (got, want)) in sweep.points.iter().zip(reference).enumerate() {
        for &n in &all_nodes(c) {
            assert!(
                (got.voltage(n) - want.voltage(n)).abs() < TOL_V,
                "{what}, point {k} ({} V), node {}: {} vs {}",
                sweep.values[k],
                c.node_name(n),
                got.voltage(n),
                want.voltage(n)
            );
        }
    }
}

#[test]
fn chain_sweep_matches_pointwise_cold_solves() {
    let c = chain();
    // A uniform grid, and a non-uniform descending one that is fine across
    // the switching point and coarse elsewhere.
    let uniform: Vec<f64> = (0..31).map(|i| VDD * i as f64 / 30.0).collect();
    let graded = [
        0.9, 0.7, 0.55, 0.48, 0.46, 0.455, 0.45, 0.445, 0.44, 0.42, 0.3, 0.0,
    ];
    for values in [&uniform[..], &graded[..]] {
        let sweep = Session::elaborate(c.clone())
            .unwrap()
            .dc_sweep_owned("VIN", values)
            .unwrap();
        assert_points_match(&c, &sweep, &cold_points(&c, "VIN", values), "chain");
    }
}

/// One READ half-cell, as `circuits::sram` builds it: an inverter driven by
/// the swept `VIN`, with the access transistor pulling its output toward
/// the precharged bit line.
fn read_half_cell(deltas: &[VariationDelta]) -> Circuit {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let vin = c.node("vin");
    let out = c.node("out");
    let bl = c.node("bl");
    let wl = c.node("wl");
    c.vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(VDD));
    c.vsource("VIN", vin, Circuit::GROUND, Waveform::dc(0.0));
    c.vsource("VBL", bl, Circuit::GROUND, Waveform::dc(VDD));
    c.vsource("VWL", wl, Circuit::GROUND, Waveform::dc(VDD));
    c.mosfet("PU", out, vin, vdd, vdd, pmos(deltas[0]));
    c.mosfet(
        "PD",
        out,
        vin,
        Circuit::GROUND,
        Circuit::GROUND,
        nmos(deltas[1], GN),
    );
    c.mosfet("PG", bl, wl, out, Circuit::GROUND, nmos(deltas[2], GA));
    c
}

/// The READ-SNM inner loop: one persistent half-cell session, resampled in
/// place and swept over the 41-point butterfly grid, matches cold solves
/// of a fresh elaboration at every point.
#[test]
fn read_half_cell_sweeps_match_pointwise_cold_solves_across_resamples() {
    let mut rng = TestRng(0x5eeb_ce11);
    let values: Vec<f64> = (0..41).map(|i| VDD * i as f64 / 40.0).collect();
    let mut session = Session::elaborate(read_half_cell(&[VariationDelta::default(); 3])).unwrap();
    for trial in 0..6 {
        let deltas = random_deltas(&mut rng);
        let c = read_half_cell(&deltas[..3]);
        assert_eq!(session.swap_devices(cell_swaps(&c)).unwrap(), 3);
        let sweep = session.dc_sweep_owned("VIN", &values).unwrap();
        let what = format!("trial {trial}");
        assert_points_match(&c, &sweep, &cold_points(&c, "VIN", &values), &what);
    }
}

/// On the bistable 6T cell, sweeping one bit line up from 0 V writes a 0
/// into `l` and then holds it: from about mid-rail on, both states are
/// stable, and the sweep must stay on the branch that previous-point
/// continuation (a warm `dc_owned` after each `set_source`) follows.
#[test]
fn bistable_sweep_keeps_the_continuation_branch() {
    let (c, l, r) = sram_cell(&random_deltas(&mut TestRng(0xb1_57ab)));
    let values: Vec<f64> = (0..31)
        .map(|i| VDD * i as f64 / 30.0)
        .chain((0..30).rev().map(|i| VDD * i as f64 / 30.0))
        .collect();
    let sweep = Session::elaborate(c.clone())
        .unwrap()
        .dc_sweep_owned("VBL", &values)
        .unwrap();
    let mut continuation = Session::elaborate(c.clone()).unwrap();
    let reference: Vec<spice::DcResult> = values
        .iter()
        .map(|&v| {
            continuation.set_source("VBL", Waveform::dc(v)).unwrap();
            continuation.dc_owned().unwrap()
        })
        .collect();
    assert_points_match(&c, &sweep, &reference, "6T cell");
    // The other state exists at the top of the sweep, so the branch was
    // genuinely a choice.
    let top = sweep.points[30].voltage(l);
    assert!(
        top < 0.35 * VDD,
        "l = {top} after the bit line returned to Vdd"
    );
    let mut other = c;
    other.set_vsource("VBL", Waveform::dc(VDD)).unwrap();
    let flipped = Session::elaborate(other)
        .unwrap()
        .dc_owned_with_guess(&[(l, VDD), (r, 0.0)])
        .unwrap();
    assert!(
        flipped.voltage(l) > 0.75 * VDD,
        "l = {}",
        flipped.voltage(l)
    );
}

/// The start the sweep predicts for `at` from `(value, solution)` history:
/// the Lagrange polynomial through the points, evaluated at `at`.
fn lagrange(history: &[(f64, &[f64])], at: f64) -> Vec<f64> {
    let mut x = vec![0.0; history[0].1.len()];
    for (i, &(vi, yi)) in history.iter().enumerate() {
        let w: f64 = history
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, &(vj, _))| (at - vj) / (vi - vj))
            .product();
        for (s, &y) in x.iter_mut().zip(yi) {
            *s += w * y;
        }
    }
    x
}

/// Grids whose last point lies far beyond the quadratic's reach: Newton
/// from the predicted start fails (checked here directly), so the point is
/// solved by the fallback order, and the sweep still matches cold solves.
#[test]
fn overshooting_extrapolation_recovers_through_the_fallback_order() {
    let c = chain();
    // Fine steps through the switching point, then a jump to 0 V: the
    // quadratic puts the second stage at tens of volts. Spacing 1e-200
    // overflows the Lagrange weights into a non-finite start.
    for values in [[0.46, 0.45, 0.44, 0.0], [0.0, 1e-200, 2e-200, VDD]] {
        let reference = cold_points(&c, "VIN", &values);
        let history: Vec<(f64, &[f64])> = values[..3]
            .iter()
            .zip(&reference)
            .map(|(&v, p)| (v, p.raw()))
            .collect();
        let start = lagrange(&history, values[3]);
        let mut at_last = c.clone();
        at_last.set_vsource("VIN", Waveform::dc(values[3])).unwrap();
        let mut ws = Workspace::new(&at_last);
        let dc = Mode::Dc {
            gmin: 0.0,
            source_scale: 1.0,
        };
        assert!(
            newton(&at_last, &start, &dc, &mut ws).is_err(),
            "{values:?}: the predicted start {start:?} converges; the fallback is not exercised"
        );
        let sweep = Session::elaborate(c.clone())
            .unwrap()
            .dc_sweep_owned("VIN", &values)
            .unwrap();
        assert_points_match(&c, &sweep, &reference, &format!("{values:?}"));
    }
}
