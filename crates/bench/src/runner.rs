//! Command-line argument handling shared by all experiment binaries.

use cutfit_core::prelude::*;

/// Common options for experiment binaries.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Dataset scale factor (1.0 = the paper's full sizes).
    pub scale: f64,
    /// Generation / landmark seed.
    pub seed: u64,
    /// Partition counts to sweep.
    pub parts: Vec<u32>,
    /// Emit CSV instead of aligned tables.
    pub csv: bool,
    /// Restrict to these dataset names (paper spelling, case-insensitive).
    pub datasets: Option<Vec<String>>,
    /// Executor threads (1 = sequential, 0 = auto-sized from the host's
    /// available parallelism).
    pub threads: usize,
}

impl BenchArgs {
    /// Parses `std::env::args`, exiting with usage on `--help` or errors.
    pub fn parse(bin: &str, purpose: &str, default_scale: f64, default_parts: &[u32]) -> Self {
        Self::parse_from(
            std::env::args().skip(1),
            bin,
            purpose,
            default_scale,
            default_parts,
        )
    }

    /// Parses an explicit argument iterator (testable core of [`BenchArgs::parse`]).
    pub(crate) fn parse_from<I: IntoIterator<Item = String>>(
        args: I,
        bin: &str,
        purpose: &str,
        default_scale: f64,
        default_parts: &[u32],
    ) -> Self {
        let mut out = Self {
            scale: default_scale,
            seed: 42,
            parts: default_parts.to_vec(),
            csv: false,
            datasets: None,
            threads: 1,
        };
        let mut args = args.into_iter();
        let usage = || -> ! {
            eprintln!(
                "{bin} — {purpose}\n\n\
                 options:\n\
                 \x20 --scale F      dataset scale factor (default {default_scale})\n\
                 \x20 --seed N       generator seed (default 42)\n\
                 \x20 --parts A,B    partition counts (default {default_parts:?})\n\
                 \x20 --datasets X,Y restrict datasets (Table 1 names)\n\
                 \x20 --threads N    executor threads (default 1; `auto` or 0\n\
                 \x20                sizes the pool from the host's cores)\n\
                 \x20 --csv          machine-readable output"
            );
            std::process::exit(2);
        };
        while let Some(arg) = args.next() {
            let mut value = |name: &str| -> String {
                args.next().unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    std::process::exit(2);
                })
            };
            match arg.as_str() {
                "--scale" => {
                    out.scale = value("--scale").parse().unwrap_or_else(|_| {
                        eprintln!("--scale expects a float");
                        std::process::exit(2)
                    })
                }
                "--seed" => {
                    out.seed = value("--seed").parse().unwrap_or_else(|_| {
                        eprintln!("--seed expects an integer");
                        std::process::exit(2)
                    })
                }
                "--parts" => {
                    out.parts = value("--parts")
                        .split(',')
                        .map(|s| {
                            s.trim().parse().unwrap_or_else(|_| {
                                eprintln!("--parts expects comma-separated integers");
                                std::process::exit(2)
                            })
                        })
                        .collect()
                }
                "--datasets" => {
                    out.datasets = Some(
                        value("--datasets")
                            .split(',')
                            .map(|s| s.trim().to_string())
                            .collect(),
                    )
                }
                "--threads" => {
                    let raw = value("--threads");
                    out.threads = if raw.eq_ignore_ascii_case("auto") {
                        0
                    } else {
                        raw.parse().unwrap_or_else(|_| {
                            eprintln!("--threads expects an integer or `auto`");
                            std::process::exit(2)
                        })
                    }
                }
                "--csv" => out.csv = true,
                "--help" | "-h" => usage(),
                other => {
                    eprintln!("unknown option {other}");
                    usage();
                }
            }
        }
        out
    }

    /// The selected dataset profiles (all nine when unrestricted).
    pub fn profiles(&self) -> Vec<DatasetProfile> {
        match &self.datasets {
            None => DatasetProfile::all(),
            Some(names) => names
                .iter()
                .map(|n| {
                    DatasetProfile::by_name(n).unwrap_or_else(|| {
                        eprintln!(
                            "unknown dataset {n}; known: {:?}",
                            DatasetProfile::all()
                                .iter()
                                .map(|p| p.name)
                                .collect::<Vec<_>>()
                        );
                        std::process::exit(2)
                    })
                })
                .collect(),
        }
    }

    /// The executor implied by `--threads`.
    pub fn executor(&self) -> ExecutorMode {
        match self.threads {
            0 => ExecutorMode::Auto,
            1 => ExecutorMode::Sequential,
            threads => ExecutorMode::Parallel { threads },
        }
    }

    /// `--threads` resolved to a concrete worker count (≥ 1), for the
    /// partitioning APIs that take a plain thread count.
    pub fn worker_threads(&self) -> usize {
        self.executor().threads()
    }

    /// Standard experiment header.
    pub fn banner(&self, title: &str) {
        if !self.csv {
            println!("=== {title} ===");
            println!(
                "scale {} | seed {} | parts {:?} | threads {}\n",
                self.scale, self.seed, self.parts, self.threads
            );
        }
    }
}

/// Prints a table either aligned or as CSV.
pub fn emit(table: &cutfit_core::util::table::AsciiTable, csv: bool) {
    if csv {
        print!("{}", table.render_csv());
    } else {
        println!("{}", table.render());
    }
}

/// Formats a correlation coefficient as the paper prints it ("95%").
pub fn pct(r: Option<f64>) -> String {
    match r {
        Some(v) => format!("{:.0}%", v * 100.0),
        None => "n/a".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> BenchArgs {
        BenchArgs::parse_from(
            args.iter().map(|s| s.to_string()),
            "test",
            "test",
            0.01,
            &[128, 256],
        )
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&[]);
        assert_eq!(a.scale, 0.01);
        assert_eq!(a.seed, 42);
        assert_eq!(a.parts, vec![128, 256]);
        assert!(!a.csv);
        assert_eq!(a.threads, 1);
        assert_eq!(a.profiles().len(), 9);
        assert_eq!(a.executor(), cutfit_core::prelude::ExecutorMode::Sequential);
    }

    #[test]
    fn flags_override() {
        let a = parse(&[
            "--scale",
            "0.5",
            "--seed",
            "7",
            "--parts",
            "8,16",
            "--csv",
            "--threads",
            "4",
            "--datasets",
            "Orkut,Pocek",
        ]);
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.seed, 7);
        assert_eq!(a.parts, vec![8, 16]);
        assert!(a.csv);
        assert_eq!(
            a.executor(),
            cutfit_core::prelude::ExecutorMode::Parallel { threads: 4 }
        );
        let profiles = a.profiles();
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[0].name, "Orkut");
    }

    #[test]
    fn threads_auto_selects_auto_executor() {
        for spelling in ["auto", "AUTO", "0"] {
            let a = parse(&["--threads", spelling]);
            assert_eq!(a.threads, 0, "{spelling}");
            assert_eq!(a.executor(), cutfit_core::prelude::ExecutorMode::Auto);
        }
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(Some(0.954)), "95%");
        assert_eq!(pct(Some(-0.4)), "-40%");
        assert_eq!(pct(None), "n/a");
    }
}
