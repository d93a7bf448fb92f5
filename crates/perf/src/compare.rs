//! The regression engine: compares two replicate sets of flattened
//! metrics and produces a per-metric verdict plus a gate decision.
//!
//! For every metric present on both sides it computes the relative change
//! of means, a percentile-bootstrap confidence interval of the
//! direction-adjusted change ("badness": positive = worse), an effect
//! size (Cohen's d when spreads are available), and an *effective
//! threshold* — the configured relative threshold widened to a multiple
//! of the larger side's noise floor, so seed-sensitive metrics don't trip
//! the gate on input noise. A metric regresses only when its badness
//! exceeds the threshold **and** the CI excludes zero; with one replicate
//! per side the CI collapses and the threshold alone decides.
//!
//! A directional metric that *disappears* (present in the base, absent in
//! the new side while its experiment still ran — e.g. a scheme that now
//! crashes and serializes `null`) is also a regression: losing the
//! measurement is worse than losing 30 % of it.

use crate::metrics::{direction_of, Direction, Metric};
use crate::stats::{bootstrap_ci, noise_floor, summarize, Summary};
use sgxs_obs::json::Json;

/// Outcome for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Direction-adjusted change beyond threshold, CI excludes zero,
    /// in the good direction.
    Improved,
    /// No significant change (or an informational metric).
    Unchanged,
    /// Direction-adjusted change beyond threshold, CI excludes zero, in
    /// the bad direction — or a lost directional measurement.
    Regressed,
    /// Not comparable: zero baseline, or present on one side only for
    /// non-gating reasons (new metric, informational loss).
    Incomparable,
}

impl Verdict {
    /// Stable lowercase label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Incomparable => "incomparable",
        }
    }
}

/// Comparison configuration.
#[derive(Debug, Clone, Copy)]
pub struct CompareOpts {
    /// Minimum relative change considered meaningful (default 10 %).
    pub rel_threshold: f64,
    /// Noise-floor multiplier: the effective threshold is
    /// `max(rel_threshold, noise_mult * noise_floor)`.
    pub noise_mult: f64,
    /// Bootstrap resamples per metric.
    pub boot_iters: usize,
    /// Bootstrap RNG seed (reports are deterministic per seed).
    pub boot_seed: u64,
    /// Two-sided CI miss probability (0.05 → 95 % interval).
    pub alpha: f64,
}

impl Default for CompareOpts {
    fn default() -> Self {
        CompareOpts {
            rel_threshold: 0.10,
            noise_mult: 4.0,
            boot_iters: 1000,
            boot_seed: 0x5eed_c0de,
            alpha: 0.05,
        }
    }
}

impl CompareOpts {
    /// Checks the options [`compare`] refuses. The gate flags a metric only
    /// when its shift exceeds `max(rel_threshold, noise_mult *
    /// noise_floor)`, so a NaN, infinite or negative value of either would
    /// switch the gate off or make it meaningless; the bootstrap needs at
    /// least one resample and a miss probability strictly between 0 and 1.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("rel_threshold", self.rel_threshold),
            ("noise_mult", self.noise_mult),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("{name} must be finite and >= 0, got {v}"));
            }
        }
        if self.boot_iters == 0 {
            Err("boot_iters must be at least 1".to_owned())
        } else if !(self.alpha > 0.0 && self.alpha < 1.0) {
            Err(format!(
                "alpha must lie strictly between 0 and 1, got {}",
                self.alpha
            ))
        } else {
            Ok(())
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct MetricCompare {
    /// Dotted metric path.
    pub path: String,
    /// Goodness direction.
    pub direction: Direction,
    /// Base-side replicate summary (n = 0 when absent).
    pub base: Summary,
    /// New-side replicate summary (n = 0 when absent).
    pub new: Summary,
    /// Signed relative change of means, `(new - base) / |base|`.
    pub rel_change: f64,
    /// CI of the direction-adjusted relative change (positive = worse).
    pub badness_ci: (f64, f64),
    /// Effective threshold this metric was judged against.
    pub threshold: f64,
    /// Cohen's d effect size, when replicate spreads allow one.
    pub effect_size: Option<f64>,
    /// The verdict.
    pub verdict: Verdict,
    /// Extra context (e.g. "missing in new side").
    pub note: Option<String>,
}

/// The full comparison.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Label of the base side (file name or rev list).
    pub base_label: String,
    /// Label of the new side.
    pub new_label: String,
    /// Options used.
    pub opts: CompareOpts,
    /// Per-metric results, in base-document order (new-only appended).
    pub metrics: Vec<MetricCompare>,
    /// Largest per-metric noise floor observed across gated metrics.
    pub max_noise_floor: f64,
}

fn values_for(path: &str, side: &[Vec<Metric>]) -> Vec<f64> {
    side.iter()
        .flat_map(|rep| {
            rep.iter()
                .filter(|m| m.path == path)
                .map(|m| m.value)
                .collect::<Vec<_>>()
        })
        .collect()
}

fn experiments_of(side: &[Vec<Metric>]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for rep in side {
        for m in rep {
            let id = m.path.split('.').next().unwrap_or("").to_owned();
            if !out.contains(&id) {
                out.push(id);
            }
        }
    }
    out
}

/// Compares two replicate sets. Each side is a list of replicates, each
/// replicate a flattened metric list. Refuses options that fail
/// [`CompareOpts::validate`].
pub fn compare(
    base_label: &str,
    base: &[Vec<Metric>],
    new_label: &str,
    new: &[Vec<Metric>],
    opts: CompareOpts,
) -> Result<CompareReport, String> {
    opts.validate()?;
    let base_exps = experiments_of(base);
    let new_exps = experiments_of(new);

    // Union of paths, base order first, then new-only paths.
    let mut paths: Vec<String> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for rep in base.iter().chain(new.iter()) {
        for m in rep {
            if seen.insert(m.path.clone()) {
                paths.push(m.path.clone());
            }
        }
    }

    let mut metrics = Vec::new();
    let mut max_noise_floor: f64 = 0.0;
    for path in paths {
        let exp = path.split('.').next().unwrap_or("").to_owned();
        // Only judge metrics whose experiment ran on both sides; comparing
        // a fig7-only run against an `all` run must not flag every other
        // figure as lost.
        if !base_exps.contains(&exp) || !new_exps.contains(&exp) {
            continue;
        }
        let a = values_for(&path, base);
        let b = values_for(&path, new);
        let direction = direction_of(&path);
        metrics.push(judge(&path, direction, &a, &b, &opts, &mut max_noise_floor));
    }

    Ok(CompareReport {
        base_label: base_label.to_owned(),
        new_label: new_label.to_owned(),
        opts,
        metrics,
        max_noise_floor,
    })
}

fn judge(
    path: &str,
    direction: Direction,
    a: &[f64],
    b: &[f64],
    opts: &CompareOpts,
    max_noise_floor: &mut f64,
) -> MetricCompare {
    let sa = summarize(a);
    let sb = summarize(b);
    let gated = direction != Direction::Informational;

    let mut mc = MetricCompare {
        path: path.to_owned(),
        direction,
        base: sa,
        new: sb,
        rel_change: 0.0,
        badness_ci: (0.0, 0.0),
        threshold: opts.rel_threshold,
        effect_size: None,
        verdict: Verdict::Unchanged,
        note: None,
    };

    if a.is_empty() || b.is_empty() {
        // Lost directional measurements gate; gained or informational
        // asymmetries don't.
        if a.is_empty() {
            mc.note = Some("missing in base side".to_owned());
            mc.verdict = Verdict::Incomparable;
        } else {
            mc.note = Some("missing in new side".to_owned());
            mc.verdict = if gated {
                Verdict::Regressed
            } else {
                Verdict::Incomparable
            };
        }
        return mc;
    }
    if sa.mean == 0.0 {
        mc.verdict = if sb.mean == 0.0 {
            Verdict::Unchanged
        } else {
            mc.note = Some("zero baseline".to_owned());
            Verdict::Incomparable
        };
        return mc;
    }

    let denom = sa.mean.abs();
    mc.rel_change = (sb.mean - sa.mean) / denom;
    let floor = noise_floor(a).max(noise_floor(b));
    mc.threshold = opts.rel_threshold.max(opts.noise_mult * floor);
    if gated {
        *max_noise_floor = max_noise_floor.max(floor);
    }

    let (lo, hi) = bootstrap_ci(a, b, opts.boot_iters, opts.boot_seed, opts.alpha);
    let (rlo, rhi) = (lo / denom, hi / denom);
    // Badness: positive = worse. For lower-is-better metrics badness is
    // the relative increase; for higher-is-better it is the decrease.
    mc.badness_ci = match direction {
        Direction::HigherIsBetter => (-rhi, -rlo),
        _ => (rlo, rhi),
    };

    let pooled = ((sa.sd * sa.sd + sb.sd * sb.sd) / 2.0).sqrt();
    if pooled > 0.0 {
        mc.effect_size = Some((sb.mean - sa.mean) / pooled);
    }

    if gated {
        let badness = match direction {
            Direction::HigherIsBetter => -mc.rel_change,
            _ => mc.rel_change,
        };
        if badness > mc.threshold && mc.badness_ci.0 > 0.0 {
            mc.verdict = Verdict::Regressed;
        } else if -badness > mc.threshold && mc.badness_ci.1 < 0.0 {
            mc.verdict = Verdict::Improved;
        }
    }
    mc
}

impl CompareReport {
    /// Metrics with the given verdict.
    pub fn with_verdict(&self, v: Verdict) -> impl Iterator<Item = &MetricCompare> {
        self.metrics.iter().filter(move |m| m.verdict == v)
    }

    /// Count of metrics with the given verdict.
    pub fn count(&self, v: Verdict) -> usize {
        self.with_verdict(v).count()
    }

    /// True when the gate must fail (any confirmed regression).
    pub fn gate_failed(&self) -> bool {
        self.count(Verdict::Regressed) > 0
    }

    /// Renders the human report; `top` bounds the listed offenders.
    pub fn render(&self, top: usize) -> String {
        let mut out = format!(
            "compare: {} -> {} ({} metrics; threshold {:.1}%, noise floor up to {:.2}%)\n",
            self.base_label,
            self.new_label,
            self.metrics.len(),
            self.opts.rel_threshold * 100.0,
            self.max_noise_floor * 100.0,
        );
        out.push_str(&format!(
            "verdicts: {} regressed, {} improved, {} unchanged, {} incomparable\n",
            self.count(Verdict::Regressed),
            self.count(Verdict::Improved),
            self.count(Verdict::Unchanged),
            self.count(Verdict::Incomparable),
        ));
        for (title, verdict) in [
            ("regressions", Verdict::Regressed),
            ("improvements", Verdict::Improved),
        ] {
            let mut rows: Vec<&MetricCompare> = self.with_verdict(verdict).collect();
            if rows.is_empty() {
                continue;
            }
            rows.sort_by(|x, y| {
                y.rel_change
                    .abs()
                    .partial_cmp(&x.rel_change.abs())
                    .expect("finite rel_change")
            });
            out.push_str(&format!("{title}:\n"));
            for m in rows.iter().take(top) {
                if m.new.n == 0 {
                    out.push_str(&format!(
                        "  {:<60} {} (was {:.4})\n",
                        m.path,
                        m.note.as_deref().unwrap_or("missing"),
                        m.base.mean
                    ));
                    continue;
                }
                out.push_str(&format!(
                    "  {:<60} {:+.1}% ({:.4} -> {:.4}, CI [{:+.1}%, {:+.1}%], thr {:.1}%)\n",
                    m.path,
                    m.rel_change * 100.0,
                    m.base.mean,
                    m.new.mean,
                    m.badness_ci.0 * 100.0,
                    m.badness_ci.1 * 100.0,
                    m.threshold * 100.0,
                ));
            }
            if rows.len() > top {
                out.push_str(&format!("  ... and {} more\n", rows.len() - top));
            }
        }
        out.push_str(if self.gate_failed() {
            "gate: FAIL\n"
        } else {
            "gate: pass\n"
        });
        out
    }

    /// Machine-readable form (schema `sgxs-compare-v1`).
    pub fn to_json(&self) -> Json {
        let entries: Vec<Json> = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields: Vec<(&str, Json)> = vec![
                    ("path", m.path.as_str().into()),
                    ("verdict", m.verdict.label().into()),
                    (
                        "direction",
                        match m.direction {
                            Direction::LowerIsBetter => "lower_is_better",
                            Direction::HigherIsBetter => "higher_is_better",
                            Direction::Informational => "informational",
                        }
                        .into(),
                    ),
                    ("base_n", m.base.n.into()),
                    ("base_mean", m.base.mean.into()),
                    ("new_n", m.new.n.into()),
                    ("new_mean", m.new.mean.into()),
                    ("rel_change", m.rel_change.into()),
                    (
                        "badness_ci",
                        Json::Arr(vec![m.badness_ci.0.into(), m.badness_ci.1.into()]),
                    ),
                    ("threshold", m.threshold.into()),
                    ("effect_size", m.effect_size.into()),
                ];
                if let Some(n) = &m.note {
                    fields.push(("note", n.as_str().into()));
                }
                Json::obj(fields)
            })
            .collect();
        Json::obj(vec![
            ("schema", "sgxs-compare-v1".into()),
            ("base", self.base_label.as_str().into()),
            ("new", self.new_label.as_str().into()),
            (
                "summary",
                Json::obj(vec![
                    ("regressed", self.count(Verdict::Regressed).into()),
                    ("improved", self.count(Verdict::Improved).into()),
                    ("unchanged", self.count(Verdict::Unchanged).into()),
                    ("incomparable", self.count(Verdict::Incomparable).into()),
                    ("gate_failed", self.gate_failed().into()),
                    ("rel_threshold", self.opts.rel_threshold.into()),
                    ("noise_mult", self.opts.noise_mult.into()),
                    ("max_noise_floor", self.max_noise_floor.into()),
                    ("boot_iters", self.opts.boot_iters.into()),
                    ("boot_seed", self.opts.boot_seed.into()),
                ]),
            ),
            ("metrics", Json::Arr(entries)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reps(path: &str, vals: &[f64]) -> Vec<Vec<Metric>> {
        vals.iter()
            .map(|v| {
                vec![Metric {
                    path: path.to_owned(),
                    value: *v,
                }]
            })
            .collect()
    }

    const PERF: &str = "fig7.gmean_perf.sgxbounds";

    #[test]
    fn invalid_options_are_refused() {
        let a = reps(PERF, &[1.0]);
        let ok = CompareOpts::default();
        let edge = CompareOpts {
            rel_threshold: 0.0,
            noise_mult: 0.0,
            boot_iters: 1,
            alpha: 0.5,
            ..ok
        };
        assert_eq!(edge.validate(), Ok(()));
        for bad in [
            CompareOpts {
                rel_threshold: f64::NAN,
                ..ok
            },
            CompareOpts {
                rel_threshold: f64::INFINITY,
                ..ok
            },
            CompareOpts {
                rel_threshold: -0.1,
                ..ok
            },
            CompareOpts {
                noise_mult: f64::NAN,
                ..ok
            },
            CompareOpts {
                noise_mult: f64::INFINITY,
                ..ok
            },
            CompareOpts {
                noise_mult: -1.0,
                ..ok
            },
            CompareOpts {
                boot_iters: 0,
                ..ok
            },
            CompareOpts { alpha: 0.0, ..ok },
            CompareOpts { alpha: 1.0, ..ok },
            CompareOpts {
                alpha: f64::NAN,
                ..ok
            },
        ] {
            let e = bad.validate().expect_err("invalid options validate");
            assert_eq!(compare("a", &a, "b", &a, bad).err(), Some(e), "{bad:?}");
        }
    }

    #[test]
    fn identical_sides_do_not_regress() {
        let a = reps(PERF, &[1.17, 1.171, 1.169]);
        let r = compare("a", &a, "b", &a, CompareOpts::default()).unwrap();
        assert_eq!(r.count(Verdict::Regressed), 0);
        assert!(!r.gate_failed());
        assert_eq!(r.metrics[0].verdict, Verdict::Unchanged);
    }

    #[test]
    fn thirty_percent_shift_regresses() {
        let a = reps(PERF, &[1.17, 1.171, 1.169]);
        let b = reps(PERF, &[1.52, 1.521, 1.519]);
        let r = compare("a", &a, "b", &b, CompareOpts::default()).unwrap();
        assert!(r.gate_failed());
        let m = &r.metrics[0];
        assert_eq!(m.verdict, Verdict::Regressed);
        assert!(
            m.rel_change > 0.29 && m.rel_change < 0.31,
            "{}",
            m.rel_change
        );
        assert!(m.badness_ci.0 > 0.0, "CI excludes zero: {:?}", m.badness_ci);
        assert!(m.effect_size.expect("spreads exist") > 8.0);
        // Report renders and serializes.
        assert!(r.render(10).contains("gate: FAIL"));
        let j = r.to_json();
        assert_eq!(
            j.get("schema").and_then(Json::as_str),
            Some("sgxs-compare-v1")
        );
        assert_eq!(
            j.get("summary").and_then(|s| s.get("gate_failed")).cloned(),
            Some(Json::Bool(true))
        );
    }

    #[test]
    fn higher_is_better_flips_direction() {
        let p = "fig13.apps.memcached.samples.0.throughput_req_per_mcycle";
        let a = reps(p, &[100.0, 101.0]);
        let drop = reps(p, &[60.0, 61.0]);
        let gain = reps(p, &[140.0, 141.0]);
        assert!(compare("a", &a, "b", &drop, CompareOpts::default())
            .unwrap()
            .gate_failed());
        let r = compare("a", &a, "b", &gain, CompareOpts::default()).unwrap();
        assert_eq!(r.metrics[0].verdict, Verdict::Improved);
    }

    #[test]
    fn noise_floor_widens_the_threshold() {
        // 20% replicate spread on both sides; a 12% mean shift must NOT
        // regress even though it beats the 10% base threshold.
        let a = reps(PERF, &[1.0, 1.2, 0.8]);
        let b = reps(PERF, &[1.12, 1.35, 0.9]);
        let r = compare("a", &a, "b", &b, CompareOpts::default()).unwrap();
        let m = &r.metrics[0];
        assert!(m.threshold > 0.10, "threshold widened: {}", m.threshold);
        assert_eq!(m.verdict, Verdict::Unchanged);
    }

    #[test]
    fn single_replicates_gate_on_threshold_alone() {
        let a = reps(PERF, &[1.0]);
        assert!(
            compare("a", &a, "b", &reps(PERF, &[1.3]), CompareOpts::default())
                .unwrap()
                .gate_failed()
        );
        assert!(
            !compare("a", &a, "b", &reps(PERF, &[1.05]), CompareOpts::default())
                .unwrap()
                .gate_failed()
        );
    }

    #[test]
    fn lost_directional_metric_regresses_but_new_one_does_not() {
        let both = |p1: &str, v1: f64, p2: Option<(&str, f64)>| -> Vec<Vec<Metric>> {
            let mut m = vec![Metric {
                path: p1.to_owned(),
                value: v1,
            }];
            if let Some((p, v)) = p2 {
                m.push(Metric {
                    path: p.to_owned(),
                    value: v,
                });
            }
            vec![m]
        };
        let a = both(PERF, 1.17, Some(("fig7.rows.kmeans.perf.mpx", 18.8)));
        let b = both(PERF, 1.17, None);
        let r = compare("a", &a, "b", &b, CompareOpts::default()).unwrap();
        assert!(r.gate_failed(), "lost mpx measurement must gate");
        // The reverse direction: a metric appearing is not a regression.
        let r = compare("a", &b, "b", &a, CompareOpts::default()).unwrap();
        assert!(!r.gate_failed());
        assert_eq!(r.count(Verdict::Incomparable), 1);
    }

    #[test]
    fn disjoint_experiments_are_skipped_not_flagged() {
        let a = reps(PERF, &[1.17]);
        let b = reps("fig9.rows.kmeans.sgxbounds_4t", &[1.1]);
        let r = compare("a", &a, "b", &b, CompareOpts::default()).unwrap();
        assert!(r.metrics.is_empty());
        assert!(!r.gate_failed());
    }

    #[test]
    fn informational_metrics_never_gate() {
        let p = "fig1.points.0.rows";
        let a = reps(p, &[100.0]);
        let b = reps(p, &[900.0]);
        let r = compare("a", &a, "b", &b, CompareOpts::default()).unwrap();
        assert!(!r.gate_failed());
        assert_eq!(r.metrics[0].verdict, Verdict::Unchanged);
    }

    #[test]
    fn report_is_deterministic() {
        let a = reps(PERF, &[1.0, 1.1, 0.9]);
        let b = reps(PERF, &[1.2, 1.3, 1.1]);
        let r1 = compare("a", &a, "b", &b, CompareOpts::default()).unwrap();
        let r2 = compare("a", &a, "b", &b, CompareOpts::default()).unwrap();
        assert_eq!(r1.to_json().to_pretty(), r2.to_json().to_pretty());
    }
}
