//! Experiment E1 — Table 1: characterization of datasets.
//!
//! Generates all nine dataset profiles at the requested scale and prints
//! every Table 1 column (vertices, edges, symmetry, zero-in/out %,
//! triangles, connected components, diameter, on-disk size) next to the
//! paper's full-scale values, so the structural fingerprint can be compared
//! directly.

use cutfit_bench::runner::{emit, BenchArgs};
use cutfit_core::util::fmt::{human_bytes, human_count, percent};
use cutfit_core::util::table::{Align, AsciiTable};

fn main() {
    let args = BenchArgs::parse(
        "table1",
        "dataset characterization (paper Table 1)",
        0.01,
        &[],
    );
    args.banner("Table 1: characterization of datasets");

    let mut t = AsciiTable::new([
        "Dataset",
        "Vertices",
        "Edges",
        "Symm",
        "ZeroIn%",
        "ZeroOut%",
        "Triangles",
        "Conn.Comp.",
        "Diameter",
        "Size",
    ])
    .aligns(&[
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);

    for profile in args.profiles() {
        let graph = profile.generate(args.scale, args.seed);
        let c = cutfit_core::graph::analysis::characterize(&graph, 4);
        t.row([
            profile.name.to_string(),
            human_count(c.vertices),
            human_count(c.edges),
            percent(c.symmetry),
            percent(c.zero_in),
            percent(c.zero_out),
            human_count(c.triangles),
            c.components.to_string(),
            c.diameter.to_string(),
            human_bytes(c.size_bytes),
        ]);
    }
    emit(&t, args.csv);

    if !args.csv {
        println!("paper values at full scale (for shape comparison):");
        let mut p = AsciiTable::new([
            "Dataset",
            "Vertices",
            "Edges",
            "Symm",
            "ZeroIn%",
            "ZeroOut%",
            "Triangles",
            "Conn.Comp.",
            "Diameter",
        ]);
        for row in [
            [
                "RoadNet-PA",
                "1.0M",
                "3.0M",
                "100.00",
                "0.00",
                "0.00",
                "67.1K",
                "1052",
                "inf",
            ],
            [
                "YouTube", "1.1M", "2.9M", "100.00", "0.00", "0.00", "3.0M", "1", "20",
            ],
            [
                "RoadNet-TX",
                "1.3M",
                "3.8M",
                "100.00",
                "0.00",
                "0.00",
                "82.8K",
                "1766",
                "inf",
            ],
            [
                "Pocek", "1.6M", "30.6M", "54.34", "6.94", "12.25", "32.5M", "1", "11",
            ],
            [
                "RoadNet-CA",
                "1.9M",
                "5.5M",
                "100.00",
                "0.00",
                "0.00",
                "120.6K",
                "1052",
                "inf",
            ],
            [
                "Orkut", "3.0M", "117.1M", "100.00", "0.00", "0.00", "627.5M", "1", "9",
            ],
            [
                "socLiveJournal",
                "4.8M",
                "68.9M",
                "75.03",
                "7.39",
                "11.12",
                "285.7M",
                "1876",
                "inf",
            ],
            [
                "follow-jul",
                "17.1M",
                "136.7M",
                "37.57",
                "46.94",
                "25.65",
                "4.8B",
                "52",
                "inf",
            ],
            [
                "follow-dec",
                "26.3M",
                "204.9M",
                "37.57",
                "55.05",
                "18.34",
                "7.6B",
                "47",
                "inf",
            ],
        ] {
            p.row(row);
        }
        println!("{}", p.render());
    }
}
