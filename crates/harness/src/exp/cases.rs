//! §7 security case studies: Heartbleed (Apache/OpenSSL), the Nginx
//! chunked-transfer stack overflow (CVE-2013-2028), summarized per scheme
//! and for SGXBounds' boundless-memory mode.

use crate::report::Table;
use crate::scheme::{run_one, RunConfig, Scheme};
use sgxbounds::SbConfig;
use sgxs_mir::Trap;
use sgxs_obs::document;
use sgxs_workloads::apps::apache::Heartbleed;
use sgxs_workloads::apps::memcached::MemcachedCve2011_4971;
use sgxs_workloads::apps::nginx::NginxCve2013_2028;
use sgxs_workloads::Workload;
use std::fmt;

document! {
    /// One case-study line.
    #[derive(Debug, Clone)]
    pub struct CaseRow {
        /// Case name.
        pub case: String,
        /// Scheme label.
        pub scheme: String,
        /// What happened.
        pub verdict: String,
    }
}

document! {
    /// All case results.
    #[derive(Debug, Clone)]
    pub struct Cases {
        /// Rows.
        pub rows: Vec<CaseRow>,
    }
}

fn verdict(case: &'static str, w: &dyn Workload, scheme: Scheme, rc: &RunConfig) -> String {
    let m = run_one(w, scheme, rc);
    let unprotected = matches!(scheme, Scheme::Baseline);
    match (&m.result, case) {
        (Err(Trap::SafetyViolation { .. }), _) => "detected, program halted".into(),
        (Err(Trap::InstructionLimit), "memcached_cve") => {
            "attack absorbed but daemon spins (paper's observed hang)".into()
        }
        (Ok(0), "heartbleed") => "no leak, server kept running".into(),
        (Ok(1), "heartbleed") => "SECRET LEAKED".into(),
        (Ok(n), "nginx_cve") if unprotected => {
            format!("STACK SMASHED silently; {n} requests served")
        }
        (Ok(n), "nginx_cve") => format!("attack dropped, {n} requests served"),
        (Ok(n), "memcached_cve") if unprotected => {
            format!("HEAP SMASHED silently; {n} requests served")
        }
        (Ok(v), _) => format!("completed ({v})"),
        (Err(t), _) => format!("{t}"),
    }
}

/// Runs every case under every scheme, plus SGXBounds+boundless.
pub fn run(rc: &RunConfig) -> Cases {
    let boundless = Scheme::SgxBoundsCustom(SbConfig {
        boundless: true,
        ..SbConfig::default()
    });
    let mut rows = Vec::new();
    let cases: [(&'static str, Box<dyn Workload>); 3] = [
        ("heartbleed", Box::new(Heartbleed)),
        ("memcached_cve", Box::new(MemcachedCve2011_4971)),
        ("nginx_cve", Box::new(NginxCve2013_2028)),
    ];
    for (case, w) in cases {
        // The memcached hang reproduction deliberately spins; cap its budget
        // so `repro cases` stays fast.
        let mut case_rc = *rc;
        if case == "memcached_cve" {
            case_rc.max_instructions = 150_000_000;
        }
        for scheme in [
            Scheme::Baseline,
            Scheme::Mpx,
            Scheme::Asan,
            Scheme::SgxBounds,
        ] {
            rows.push(CaseRow {
                case: case.into(),
                scheme: scheme.label().into(),
                verdict: verdict(case, w.as_ref(), scheme, &case_rc),
            });
        }
        rows.push(CaseRow {
            case: case.into(),
            scheme: "sgxbounds+boundless".into(),
            verdict: verdict(case, w.as_ref(), boundless, &case_rc),
        });
    }
    Cases { rows }
}

impl fmt::Display for Cases {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Section 7 security case studies")?;
        let mut t = Table::new(&["case", "scheme", "verdict"]);
        for r in &self.rows {
            t.row(vec![r.case.clone(), r.scheme.clone(), r.verdict.clone()]);
        }
        write!(f, "{}", t.render())
    }
}
