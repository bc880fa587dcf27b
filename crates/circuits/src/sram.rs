//! 6T SRAM cell: butterfly curves and static noise margin (paper Fig. 9).
//!
//! The butterfly plot overlays the voltage transfer curves of the two
//! half-cells; the static noise margin (SNM) is the side of the largest
//! square that fits inside either eye (Seevinck's maximal-square criterion).
//!
//! * **HOLD**: word line low — each half-cell is just its inverter.
//! * **READ**: word line high, both bit lines precharged to `Vdd` — the
//!   access transistor fights the pull-down, squashing the low level and
//!   shrinking the eyes (the classic read-stability hazard the paper uses
//!   as its most variation-sensitive benchmark).

use crate::cells::DeviceFactory;
use mosfet::Geometry;
use spice::{Circuit, Session, SpiceError, Waveform};

/// Transistor sizing of the 6T cell.
#[derive(Debug, Clone, Copy)]
pub struct SramSizing {
    /// Pull-down NMOS width, m (paper: 150 nm).
    pub w_pd: f64,
    /// Pull-up PMOS width, m.
    pub w_pu: f64,
    /// Pass-gate (access) NMOS width, m.
    pub w_pg: f64,
    /// Channel length, m (paper: 40 nm).
    pub l: f64,
}

impl Default for SramSizing {
    fn default() -> Self {
        SramSizing {
            w_pd: 150e-9,
            w_pu: 80e-9,
            w_pg: 100e-9,
            l: 40e-9,
        }
    }
}

/// One butterfly curve: `(v_l, v_r)` samples in the storage-node plane.
pub type ButterflyCurve = Vec<(f64, f64)>;

/// Static analysis mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnmMode {
    /// Word line low: pure cross-coupled inverters.
    Hold,
    /// Word line high, bit lines at `Vdd`.
    Read,
}

/// The six device models of one cell instance (drawn once per Monte Carlo
/// sample so both half-cells see independent mismatch).
pub struct SramDevices {
    /// Pull-down NMOS of the left and right half-cells.
    pub pd: [Box<dyn mosfet::MosfetModel>; 2],
    /// Pull-up PMOS of the left and right half-cells.
    pub pu: [Box<dyn mosfet::MosfetModel>; 2],
    /// Access NMOS of the left and right half-cells.
    pub pg: [Box<dyn mosfet::MosfetModel>; 2],
}

impl SramDevices {
    /// Draws all six devices from a factory.
    pub fn draw(sz: SramSizing, f: &mut dyn DeviceFactory) -> Self {
        let gn = Geometry::new(sz.w_pd, sz.l);
        let gp = Geometry::new(sz.w_pu, sz.l);
        let ga = Geometry::new(sz.w_pg, sz.l);
        SramDevices {
            pd: [f.nmos(gn), f.nmos(gn)],
            pu: [f.pmos(gp), f.pmos(gp)],
            pg: [f.nmos(ga), f.nmos(ga)],
        }
    }
}

/// Voltage transfer curve of one half-cell: sweeps the input (the opposite
/// storage node) and records this half-cell's output node, including the
/// access-transistor load in READ mode.
///
/// Returns `(v_in, v_out)` pairs with `v_in` ascending.
///
/// # Errors
///
/// Propagates DC-sweep failures.
pub fn half_cell_vtc(
    pd: &dyn mosfet::MosfetModel,
    pu: &dyn mosfet::MosfetModel,
    pg: &dyn mosfet::MosfetModel,
    vdd_value: f64,
    mode: SnmMode,
    n_points: usize,
) -> Result<Vec<(f64, f64)>, SpiceError> {
    let (c, out) = half_cell_circuit(pd, pu, pg, vdd_value, mode);
    let mut session = Session::elaborate(c)?;
    half_cell_vtc_on(&mut session, out, vdd_value, n_points)
}

/// Builds one half-cell circuit; returns it plus the output node.
fn half_cell_circuit(
    pd: &dyn mosfet::MosfetModel,
    pu: &dyn mosfet::MosfetModel,
    pg: &dyn mosfet::MosfetModel,
    vdd_value: f64,
    mode: SnmMode,
) -> (Circuit, spice::NodeId) {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let vin = c.node("vin");
    let out = c.node("out");
    c.vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(vdd_value));
    c.vsource("VIN", vin, Circuit::GROUND, Waveform::dc(0.0));
    c.mosfet("PU", out, vin, vdd, vdd, pu.clone_box());
    c.mosfet(
        "PD",
        out,
        vin,
        Circuit::GROUND,
        Circuit::GROUND,
        pd.clone_box(),
    );
    if mode == SnmMode::Read {
        let bl = c.node("bl");
        let wl = c.node("wl");
        c.vsource("VBL", bl, Circuit::GROUND, Waveform::dc(vdd_value));
        c.vsource("VWL", wl, Circuit::GROUND, Waveform::dc(vdd_value));
        c.mosfet("PG", bl, wl, out, Circuit::GROUND, pg.clone_box());
    }
    (c, out)
}

/// Sweeps an elaborated half-cell session and returns its `(v_in, v_out)`
/// transfer curve.
fn half_cell_vtc_on(
    session: &mut Session,
    out: spice::NodeId,
    vdd_value: f64,
    n_points: usize,
) -> Result<Vec<(f64, f64)>, SpiceError> {
    let values: Vec<f64> = (0..n_points)
        .map(|i| vdd_value * i as f64 / (n_points - 1) as f64)
        .collect();
    let sweep = session.dc_sweep_owned("VIN", &values)?;
    Ok(values
        .iter()
        .zip(sweep.voltages(out))
        .map(|(&x, y)| (x, y))
        .collect())
}

/// Both butterfly curves of a cell.
///
/// Curve 1 is the left half-cell's VTC `(v_r, v_l = f1(v_r))` re-expressed
/// in the `(v_l, v_r)` plane; curve 2 is the right half-cell's VTC
/// `(v_l, v_r = f2(v_l))` directly. Plotting both in the `(v_l, v_r)` plane
/// gives the butterfly.
///
/// # Errors
///
/// Propagates sweep failures.
pub fn butterfly(
    devices: &SramDevices,
    vdd: f64,
    mode: SnmMode,
    n_points: usize,
) -> Result<(ButterflyCurve, ButterflyCurve), SpiceError> {
    // Right half drives v_r from v_l.
    let curve2 = half_cell_vtc(
        devices.pd[1].as_ref(),
        devices.pu[1].as_ref(),
        devices.pg[1].as_ref(),
        vdd,
        mode,
        n_points,
    )?;
    // Left half drives v_l from v_r; express as (v_l, v_r) pairs.
    let vtc1 = half_cell_vtc(
        devices.pd[0].as_ref(),
        devices.pu[0].as_ref(),
        devices.pg[0].as_ref(),
        vdd,
        mode,
        n_points,
    )?;
    let curve1: Vec<(f64, f64)> = vtc1.into_iter().map(|(v_r, v_l)| (v_l, v_r)).collect();
    Ok((curve1, curve2))
}

/// Linear interpolation on `(t, v)` samples sorted ascending by `t`,
/// clamped at the ends.
fn interp(pts: &[(f64, f64)], t: f64) -> f64 {
    if pts.is_empty() {
        return 0.0;
    }
    if t <= pts[0].0 {
        return pts[0].1;
    }
    if t >= pts[pts.len() - 1].0 {
        return pts[pts.len() - 1].1;
    }
    for w in pts.windows(2) {
        if t >= w[0].0 && t <= w[1].0 {
            let (t0, v0) = w[0];
            let (t1, v1) = w[1];
            if t1 == t0 {
                return v1;
            }
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
        }
    }
    pts[pts.len() - 1].1
}

/// Largest square inscribed in one eye: candidate bottom-left corners walk
/// along `corner_curve` (as raw `(x, y)` points); the top-right corner must
/// stay below `bound_curve` interpreted as an ascending-`x` set of `(x, y)`
/// samples.
fn lobe_snm(corner_curve: &[(f64, f64)], bound_curve: &[(f64, f64)], v_max: f64) -> f64 {
    let mut bound = bound_curve.to_vec();
    bound.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite voltages"));
    let mut best = 0.0_f64;
    for &(x0, y0) in corner_curve {
        // Grow the square until the top-right corner hits the bound curve:
        // find the largest s with y0 + s <= y_bound(x0 + s).
        let g = |s: f64| interp(&bound, x0 + s) - (y0 + s);
        let g0 = g(0.0);
        if g0 <= 0.0 {
            continue; // corner not inside this eye
        }
        let g_max = g(v_max);
        if g_max > 0.0 {
            best = best.max(v_max);
            continue;
        }
        // g is linear between the bound's knots (and beyond its clamped
        // ends): walk the knots past x0 to the first piece on which g
        // reaches zero, then solve that piece in closed form.
        let (mut sa, mut ga) = (0.0, g0);
        let (mut sb, mut gb) = (v_max, g_max);
        for &(xk, yk) in &bound[bound.partition_point(|p| p.0 <= x0)..] {
            let sk = xk - x0;
            if sk >= v_max {
                break;
            }
            let gk = yk - (y0 + sk);
            if gk <= 0.0 {
                (sb, gb) = (sk, gk);
                break;
            }
            (sa, ga) = (sk, gk);
        }
        best = best.max(sa + ga * (sb - sa) / (ga - gb));
    }
    best
}

/// Static noise margin of a butterfly: the smaller of the two maximal
/// squares inscribed in the eyes.
///
/// `curve1` and `curve2` are the outputs of [`butterfly`], both in the
/// `(v_l, v_r)` plane.
pub fn snm(curve1: &[(f64, f64)], curve2: &[(f64, f64)], vdd: f64) -> f64 {
    let (eye1, eye2) = eye_margins(curve1, curve2, vdd);
    eye1.min(eye2)
}

/// The two per-eye maximal-square margins of a butterfly, *before* the
/// `min` that defines the SNM: `(upper-left eye, lower-right eye)`.
///
/// The SNM is a minimum of these two, which makes it non-smooth exactly at
/// the symmetric nominal point where both eyes are equal — a gradient of
/// the SNM there mixes the two eyes' (different) sensitivities and aims
/// nowhere useful. Rare-event machinery that needs a smooth objective
/// (e.g. fitting an importance-sampling shift toward one failure mode)
/// should target a single eye through this function; the left/right
/// device symmetry of the cell makes the two eye margins exchangeable in
/// distribution, so single-eye tail probabilities convert to SNM tail
/// probabilities by inclusion–exclusion.
pub fn eye_margins(curve1: &[(f64, f64)], curve2: &[(f64, f64)], vdd: f64) -> (f64, f64) {
    // Upper-left eye: curve 1 hugs its lower-left boundary (for a given
    // v_l, curve 1's v_r sits just above the metastable level while curve 2
    // crosses the top of the region), so corners walk along curve 1 growing
    // squares up-right until they hit curve 2. The assignment matters —
    // taking `max` over both assignments (as this function once did)
    // collapses both margins to the *larger* eye, which made the measured
    // SNM grow with mismatch asymmetry instead of shrink.
    let eye1 = lobe_snm(curve1, curve2, vdd);
    // Lower-right eye: mirror the butterfly across the diagonal, which
    // maps it onto the upper-left eye with the curve roles swapped. Using
    // the mirrored construction (rather than swapping the assignment on
    // the raw curves) keeps the two evaluations exactly symmetric in
    // their sampling grids: a mismatch-free cell yields bit-identical
    // margins instead of differing by interpolation error through the
    // steep VTC transition.
    let m1: Vec<(f64, f64)> = curve1.iter().map(|&(x, y)| (y, x)).collect();
    let m2: Vec<(f64, f64)> = curve2.iter().map(|&(x, y)| (y, x)).collect();
    let eye2 = lobe_snm(&m2, &m1, vdd);
    (eye1, eye2)
}

/// Builds the full 6T cell (both halves cross-coupled, bit lines and word
/// line driven) and returns `(circuit, node_l, node_r)`. The cell is wired
/// for READ: word line high, both bit lines at `Vdd`.
pub fn full_cell(devices: &SramDevices, vdd_value: f64) -> (Circuit, spice::NodeId, spice::NodeId) {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let l = c.node("l");
    let r = c.node("r");
    let bl = c.node("bl");
    let blb = c.node("blb");
    let wl = c.node("wl");
    c.vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(vdd_value));
    c.vsource("VBL", bl, Circuit::GROUND, Waveform::dc(vdd_value));
    c.vsource("VBLB", blb, Circuit::GROUND, Waveform::dc(vdd_value));
    c.vsource("VWL", wl, Circuit::GROUND, Waveform::dc(vdd_value));
    // Left half-cell: inverter input r, output l.
    c.mosfet("PU1", l, r, vdd, vdd, devices.pu[0].clone_box());
    c.mosfet(
        "PD1",
        l,
        r,
        Circuit::GROUND,
        Circuit::GROUND,
        devices.pd[0].clone_box(),
    );
    c.mosfet("PG1", bl, wl, l, Circuit::GROUND, devices.pg[0].clone_box());
    // Right half-cell: inverter input l, output r.
    c.mosfet("PU2", r, l, vdd, vdd, devices.pu[1].clone_box());
    c.mosfet(
        "PD2",
        r,
        l,
        Circuit::GROUND,
        Circuit::GROUND,
        devices.pd[1].clone_box(),
    );
    c.mosfet(
        "PG2",
        blb,
        wl,
        r,
        Circuit::GROUND,
        devices.pg[1].clone_box(),
    );
    (c, l, r)
}

/// AC read-disturb analysis of the full cell (the paper's Table IV "SRAM
/// AC" workload): small-signal transfer from a bit-line perturbation to the
/// low storage node, across frequency. Returns the per-frequency transfer
/// magnitudes at the low node.
///
/// # Errors
///
/// Propagates operating-point and AC-solve failures.
pub fn read_disturb_ac(
    devices: &SramDevices,
    vdd: f64,
    freqs: &[f64],
) -> Result<Vec<f64>, SpiceError> {
    let (c, l, r) = full_cell(devices, vdd);
    let mut session = Session::elaborate(c)?;
    // Bias into the "l low" stable state; the AC sweep linearizes there.
    let ac = session.ac_owned("VBL", freqs, &[(l, 0.0), (r, vdd)])?;
    Ok(ac.magnitudes(l))
}

/// Convenience: draw devices, trace the butterfly, and return the SNM.
///
/// # Errors
///
/// Propagates sweep failures.
pub fn measure_snm(
    sz: SramSizing,
    vdd: f64,
    mode: SnmMode,
    n_points: usize,
    f: &mut dyn DeviceFactory,
) -> Result<f64, SpiceError> {
    let devices = SramDevices::draw(sz, f);
    let (c1, c2) = butterfly(&devices, vdd, mode, n_points)?;
    Ok(snm(&c1, &c2, vdd))
}

/// A persistent SNM Monte Carlo bench: both half-cell sessions elaborated
/// once; every sample swaps six fresh devices in place and traces both
/// butterfly sweeps again. The first point of each sweep starts cold, so a
/// sample depends only on its devices; warm (predicted) starts apply only
/// between points within one sweep (see [`Session::dc_sweep_owned`]).
#[derive(Debug)]
pub struct SnmBench {
    halves: [Session; 2],
    outs: [spice::NodeId; 2],
    vdd: f64,
    mode: SnmMode,
    n_points: usize,
}

impl SnmBench {
    /// Builds the two half-cell sessions with devices drawn from `f`.
    ///
    /// # Errors
    ///
    /// Propagates elaboration failures.
    pub fn new(
        sz: SramSizing,
        vdd: f64,
        mode: SnmMode,
        n_points: usize,
        f: &mut dyn DeviceFactory,
    ) -> Result<Self, SpiceError> {
        let devices = SramDevices::draw(sz, f);
        let (c0, out0) = half_cell_circuit(
            devices.pd[0].as_ref(),
            devices.pu[0].as_ref(),
            devices.pg[0].as_ref(),
            vdd,
            mode,
        );
        let (c1, out1) = half_cell_circuit(
            devices.pd[1].as_ref(),
            devices.pu[1].as_ref(),
            devices.pg[1].as_ref(),
            vdd,
            mode,
        );
        Ok(SnmBench {
            halves: [Session::elaborate(c0)?, Session::elaborate(c1)?],
            outs: [out0, out1],
            vdd,
            mode,
            n_points,
        })
    }

    /// Swaps six freshly drawn devices into the elaborated half-cells.
    ///
    /// # Errors
    ///
    /// Never fails for benches built by [`SnmBench::new`]; propagates
    /// unknown-instance errors otherwise.
    pub fn resample(
        &mut self,
        sz: SramSizing,
        f: &mut dyn DeviceFactory,
    ) -> Result<(), SpiceError> {
        let devices = SramDevices::draw(sz, f);
        let SramDevices { pd, pu, pg } = devices;
        for (i, ((pd_i, pu_i), pg_i)) in pd.into_iter().zip(pu).zip(pg).enumerate() {
            let s = &mut self.halves[i];
            s.swap_device("PD", pd_i)?;
            s.swap_device("PU", pu_i)?;
            if self.mode == SnmMode::Read {
                s.swap_device("PG", pg_i)?;
            }
        }
        Ok(())
    }

    /// Traces both butterfly curves on the current devices (both in the
    /// `(v_l, v_r)` plane, as for [`butterfly`]).
    ///
    /// # Errors
    ///
    /// Propagates sweep failures.
    pub fn curves(&mut self) -> Result<(ButterflyCurve, ButterflyCurve), SpiceError> {
        let curve2 = half_cell_vtc_on(&mut self.halves[1], self.outs[1], self.vdd, self.n_points)?;
        let vtc1 = half_cell_vtc_on(&mut self.halves[0], self.outs[0], self.vdd, self.n_points)?;
        let curve1: Vec<(f64, f64)> = vtc1.into_iter().map(|(v_r, v_l)| (v_l, v_r)).collect();
        Ok((curve1, curve2))
    }

    /// Static noise margin of the current sample.
    ///
    /// # Errors
    ///
    /// Propagates sweep failures.
    pub fn snm(&mut self) -> Result<f64, SpiceError> {
        let (c1, c2) = self.curves()?;
        Ok(snm(&c1, &c2, self.vdd))
    }

    /// Per-eye margins of the current sample (see [`eye_margins`]); the
    /// SNM is their minimum.
    ///
    /// # Errors
    ///
    /// Propagates sweep failures.
    pub fn eye_margins(&mut self) -> Result<(f64, f64), SpiceError> {
        let (c1, c2) = self.curves()?;
        Ok(eye_margins(&c1, &c2, self.vdd))
    }
}

/// A persistent read-disturb AC bench on the full 6T cell: elaborated once,
/// resampled in place per Monte Carlo trial, swept through the session's
/// batched AC path ([`Session::ac_batch`]) — consecutive
/// `resample`→[`ReadDisturbBench::run`] iterations warm-start the operating
/// point from the previous sample and reuse one AC workspace, amortizing
/// the guessed DC solve and all linearization/complex-system allocation
/// across the batch.
#[derive(Debug)]
pub struct ReadDisturbBench {
    session: Session,
    l: spice::NodeId,
    r: spice::NodeId,
    vdd: f64,
}

impl ReadDisturbBench {
    /// Builds the full cell with devices drawn from `f`.
    ///
    /// # Errors
    ///
    /// Propagates elaboration failures.
    pub fn new(sz: SramSizing, vdd: f64, f: &mut dyn DeviceFactory) -> Result<Self, SpiceError> {
        let devices = SramDevices::draw(sz, f);
        let (c, l, r) = full_cell(&devices, vdd);
        Ok(ReadDisturbBench {
            session: Session::elaborate(c)?,
            l,
            r,
            vdd,
        })
    }

    /// Swaps six freshly drawn devices into the cell.
    ///
    /// # Errors
    ///
    /// Never fails for benches built by [`ReadDisturbBench::new`].
    pub fn resample(
        &mut self,
        sz: SramSizing,
        f: &mut dyn DeviceFactory,
    ) -> Result<(), SpiceError> {
        let SramDevices { pd, pu, pg } = SramDevices::draw(sz, f);
        let [pd0, pd1] = pd;
        let [pu0, pu1] = pu;
        let [pg0, pg1] = pg;
        self.session.swap_devices([
            ("PD1", pd0),
            ("PD2", pd1),
            ("PU1", pu0),
            ("PU2", pu1),
            ("PG1", pg0),
            ("PG2", pg1),
        ])?;
        Ok(())
    }

    /// Per-frequency transfer magnitudes from the bit line into the low
    /// storage node (see [`read_disturb_ac`]), via the batched AC path:
    /// the first call selects the "l low" state from the guess, subsequent
    /// calls warm-start from the previous sample's operating point.
    ///
    /// # Errors
    ///
    /// Propagates operating-point and AC-solve failures.
    pub fn run(&mut self, freqs: &[f64]) -> Result<Vec<f64>, SpiceError> {
        let guess = [(self.l, 0.0), (self.r, self.vdd)];
        let ac = self.session.ac_batch("VBL", freqs, &guess)?;
        Ok(ac.magnitudes(self.l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{NominalBsimFactory, NominalVsFactory};

    const VDD: f64 = 0.9;

    /// Ideal steep inverters: SNM should approach Vdd/2.
    #[test]
    fn snm_of_ideal_butterfly() {
        let steep = |x: f64| VDD / (1.0 + ((x - VDD / 2.0) / 0.005).exp());
        let n = 200;
        let c2: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let x = VDD * i as f64 / (n - 1) as f64;
                (x, steep(x))
            })
            .collect();
        let c1: Vec<(f64, f64)> = c2.iter().map(|&(x, y)| (y, x)).collect();
        let s = snm(&c1, &c2, VDD);
        assert!((s - VDD / 2.0).abs() < 0.05, "ideal SNM = {s}");
    }

    #[test]
    fn hold_snm_in_expected_range() {
        let mut f = NominalVsFactory;
        let s = measure_snm(SramSizing::default(), VDD, SnmMode::Hold, 61, &mut f).unwrap();
        // Paper Fig. 9(e): hold SNM ~0.26-0.36 V.
        assert!((0.15..0.45).contains(&s), "hold SNM = {s}");
    }

    #[test]
    fn read_snm_smaller_than_hold() {
        let mut f = NominalVsFactory;
        let hold = measure_snm(SramSizing::default(), VDD, SnmMode::Hold, 61, &mut f).unwrap();
        let read = measure_snm(SramSizing::default(), VDD, SnmMode::Read, 61, &mut f).unwrap();
        assert!(read < hold, "read {read} must be below hold {hold}");
        assert!(read > 0.02, "read SNM = {read} collapsed");
    }

    #[test]
    fn bsim_kit_gives_comparable_margins() {
        let mut f = NominalBsimFactory;
        let hold = measure_snm(SramSizing::default(), VDD, SnmMode::Hold, 61, &mut f).unwrap();
        let read = measure_snm(SramSizing::default(), VDD, SnmMode::Read, 61, &mut f).unwrap();
        assert!((0.15..0.45).contains(&hold), "hold = {hold}");
        assert!(read < hold);
    }

    #[test]
    fn read_mode_squashes_low_level() {
        let mut f = NominalVsFactory;
        let devices = SramDevices::draw(SramSizing::default(), &mut f);
        let (_, hold_curve) = butterfly(&devices, VDD, SnmMode::Hold, 41).unwrap();
        let (_, read_curve) = butterfly(&devices, VDD, SnmMode::Read, 41).unwrap();
        // At v_l = Vdd the half-cell output is low; in READ the access
        // transistor pulls it up from 0.
        let hold_low = hold_curve.last().unwrap().1;
        let read_low = read_curve.last().unwrap().1;
        assert!(hold_low < 0.02);
        assert!(read_low > hold_low + 0.02, "read low = {read_low}");
    }

    #[test]
    fn full_cell_is_bistable() {
        let mut f = NominalVsFactory;
        let devices = SramDevices::draw(SramSizing::default(), &mut f);
        let (c, l, r) = full_cell(&devices, VDD);
        let mut s = Session::elaborate(c).unwrap();
        let op0 = s.dc_owned_with_guess(&[(l, 0.0), (r, VDD)]).unwrap();
        assert!(op0.voltage(l) < 0.35 * VDD, "l = {}", op0.voltage(l));
        assert!(op0.voltage(r) > 0.75 * VDD);
        let op1 = s.dc_owned_with_guess(&[(l, VDD), (r, 0.0)]).unwrap();
        assert!(op1.voltage(l) > 0.75 * VDD);
        assert!(op1.voltage(r) < 0.35 * VDD);
    }

    /// Regression for the eye-assignment bug: shifting one inverter's
    /// switching threshold must shrink one eye and grow the other, and the
    /// SNM (the min) must *degrade*. The old `max`-over-assignments code
    /// returned the larger eye for both, so asymmetry improved the
    /// reported SNM.
    #[test]
    fn threshold_mismatch_splits_the_eyes() {
        let steep = |vm: f64, x: f64| VDD / (1.0 + ((x - vm) / 0.01).exp());
        let n = 201;
        let curves = |dvm: f64| {
            let c2: Vec<(f64, f64)> = (0..n)
                .map(|i| {
                    let x = VDD * i as f64 / (n - 1) as f64;
                    (x, steep(VDD / 2.0 + dvm, x))
                })
                .collect();
            let c1: Vec<(f64, f64)> = (0..n)
                .map(|i| {
                    let x = VDD * i as f64 / (n - 1) as f64;
                    (steep(VDD / 2.0, x), x)
                })
                .collect();
            (c1, c2)
        };
        let (c1, c2) = curves(0.0);
        let (e1, e2) = eye_margins(&c1, &c2, VDD);
        let s0 = snm(&c1, &c2, VDD);
        assert!((e1 - e2).abs() < 1e-3, "symmetric butterfly: {e1} vs {e2}");
        for dvm in [0.05, -0.05, 0.1] {
            let (c1, c2) = curves(dvm);
            let (e1, e2) = eye_margins(&c1, &c2, VDD);
            let (grown, shrunk) = if dvm > 0.0 { (e1, e2) } else { (e2, e1) };
            assert!(
                grown > s0 + 0.2 * dvm.abs(),
                "eye must grow: {grown} vs {s0}"
            );
            assert!(
                shrunk < s0 - 0.5 * dvm.abs(),
                "eye must shrink: {shrunk} vs {s0}"
            );
            let s = snm(&c1, &c2, VDD);
            assert!(s < s0, "asymmetry must degrade the SNM: {s} vs {s0}");
            assert_eq!(s, e1.min(e2));
        }
    }

    #[test]
    fn eye_margins_decompose_the_snm() {
        let sz = SramSizing::default();
        let mut f = NominalVsFactory;
        let mut bench = SnmBench::new(sz, VDD, SnmMode::Read, 41, &mut f).unwrap();
        let (e1, e2) = bench.eye_margins().unwrap();
        let s = bench.snm().unwrap();
        assert_eq!(e1.min(e2), s, "SNM is exactly the smaller eye");
        // A nominal (mismatch-free) cell is left/right symmetric, so the
        // two eyes agree to sweep resolution.
        assert!((e1 - e2).abs() < 1e-6, "eyes {e1} vs {e2}");
        assert!(e1 > 0.0 && e2 > 0.0);
    }

    #[test]
    fn snm_bench_matches_one_shot_measurement() {
        let sz = SramSizing::default();
        let mut f = NominalVsFactory;
        let one_shot = measure_snm(sz, VDD, SnmMode::Read, 41, &mut f).unwrap();
        let mut bench = SnmBench::new(sz, VDD, SnmMode::Read, 41, &mut f).unwrap();
        let s1 = bench.snm().unwrap();
        assert!((s1 - one_shot).abs() < 1e-6, "{s1} vs {one_shot}");
        // Nominal resample: same devices, same SNM, no re-elaboration.
        bench.resample(sz, &mut f).unwrap();
        let s2 = bench.snm().unwrap();
        assert!((s1 - s2).abs() < 1e-6, "{s1} vs {s2}");
    }

    #[test]
    fn read_disturb_bench_matches_one_shot() {
        let sz = SramSizing::default();
        let mut f = NominalVsFactory;
        let devices = SramDevices::draw(sz, &mut f);
        let freqs = [1e6, 1e9];
        let one_shot = read_disturb_ac(&devices, VDD, &freqs).unwrap();
        let mut bench = ReadDisturbBench::new(sz, VDD, &mut f).unwrap();
        let a = bench.run(&freqs).unwrap();
        for (x, y) in a.iter().zip(&one_shot) {
            assert!((x - y).abs() < 1e-6 * y.abs().max(1e-12), "{x} vs {y}");
        }
        bench.resample(sz, &mut f).unwrap();
        let b = bench.run(&freqs).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-4 * y.abs().max(1e-12));
        }
    }

    #[test]
    fn read_disturb_transfer_rolls_off() {
        let mut f = NominalVsFactory;
        let devices = SramDevices::draw(SramSizing::default(), &mut f);
        let mags = read_disturb_ac(&devices, VDD, &[1e6, 1e9, 1e13]).unwrap();
        // Finite low-frequency coupling from the bit line into the cell,
        // rolling off at very high frequency... through the access device
        // the node is resistively divided, so the transfer must stay below 1.
        assert!(
            mags[0] > 1e-4 && mags[0] < 1.0,
            "low-f transfer = {}",
            mags[0]
        );
        assert!(
            mags[2] < 1.05 * mags[0],
            "transfer should not grow unboundedly: {mags:?}"
        );
    }

    /// The bisection `lobe_snm` used to run: 40 halvings of `[0, v_max]`
    /// on the sign of `g`. Kept as the oracle of the closed-form walk.
    fn lobe_snm_bisection(
        corner_curve: &[(f64, f64)],
        bound_curve: &[(f64, f64)],
        v_max: f64,
    ) -> f64 {
        let mut bound = bound_curve.to_vec();
        bound.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite voltages"));
        let mut best = 0.0_f64;
        for &(x0, y0) in corner_curve {
            let g = |s: f64| interp(&bound, x0 + s) - (y0 + s);
            if g(0.0) <= 0.0 {
                continue;
            }
            let mut lo = 0.0;
            let mut hi = v_max;
            if g(hi) > 0.0 {
                best = best.max(hi);
                continue;
            }
            for _ in 0..40 {
                let mid = 0.5 * (lo + hi);
                if g(mid) > 0.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            best = best.max(lo);
        }
        best
    }

    #[test]
    fn closed_form_eyes_match_the_bisection_oracle() {
        // splitmix64 → uniform [0, 1).
        let mut state = 0x5eed_u64;
        let mut uniform = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as f64 / 2f64.powi(64)
        };
        let mirror =
            |c: &[(f64, f64)]| -> Vec<(f64, f64)> { c.iter().map(|&(x, y)| (y, x)).collect() };
        for case in 0..300 {
            // A random monotone VTC on a random non-uniform grid. Every
            // third case narrows the grid so the bound curve is clamped at
            // both ends of the squares' reach.
            let vtc = |uniform: &mut dyn FnMut() -> f64| -> Vec<(f64, f64)> {
                let vm = VDD * (0.3 + 0.4 * uniform());
                let width = 0.005 + 0.08 * uniform();
                let low = 0.1 * uniform();
                let (x_lo, x_hi) = if case % 3 == 0 {
                    (0.1 * uniform(), VDD - 0.1 * uniform())
                } else {
                    (0.0, VDD)
                };
                let n = 11 + (uniform() * 60.0) as usize;
                let mut xs: Vec<f64> = (0..n).map(|_| uniform()).collect();
                xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let (first, last) = (xs[0], xs[n - 1]);
                xs.iter()
                    .map(|&u| {
                        let x = x_lo + (x_hi - x_lo) * (u - first) / (last - first);
                        (x, low + (VDD - low) / (1.0 + ((x - vm) / width).exp()))
                    })
                    .collect()
            };
            // Curve 2 is the right half-cell's VTC as is; curve 1 the left
            // half-cell's, reflected into the (v_l, v_r) plane. Independent
            // switching points split the eyes.
            let c2 = vtc(&mut uniform);
            let c1 = mirror(&vtc(&mut uniform));
            let (e1, e2) = eye_margins(&c1, &c2, VDD);
            let o1 = lobe_snm_bisection(&c1, &c2, VDD);
            let o2 = lobe_snm_bisection(&mirror(&c2), &mirror(&c1), VDD);
            assert!((e1 - o1).abs() < 1e-9, "case {case}: eye 1 {e1} vs {o1}");
            assert!((e2 - o2).abs() < 1e-9, "case {case}: eye 2 {e2} vs {o2}");
        }
    }

    #[test]
    fn closed_form_keeps_the_escape_cases() {
        // A corner outside the eye adds nothing; a square that never meets
        // the bound within v_max is capped at v_max.
        let bound = [(0.0, 0.5), (1.0, 0.4)];
        assert_eq!(lobe_snm(&[(0.2, 0.6)], &bound, 1.0), 0.0);
        let tall = [(0.0, 5.0), (1.0, 4.9)];
        assert_eq!(lobe_snm(&[(0.0, 0.0)], &tall, 1.0), 1.0);
        // Clamped beyond the last knot: g(s) = 0.4 - (0.1 + s), so s = 0.3.
        let s = lobe_snm(&[(0.9, 0.1)], &bound, 1.0);
        assert!((s - 0.3).abs() < 1e-12, "{s}");
        // Clamped before the first knot: g(s) = 0.5 - (0.2 + s) until
        // x = 0, then linear to the knot at x = 1; s = 0.3 / 1.1 + 0.1.
        let s = lobe_snm(&[(-0.1, 0.2)], &bound, 1.0);
        assert!((s - (0.1 + 0.2 / 1.1)).abs() < 1e-12, "{s}");
    }

    #[test]
    fn interp_clamps_and_interpolates() {
        let pts = [(0.0, 0.0), (1.0, 2.0)];
        assert_eq!(interp(&pts, -1.0), 0.0);
        assert_eq!(interp(&pts, 0.5), 1.0);
        assert_eq!(interp(&pts, 2.0), 2.0);
    }
}
