//! The 30-benchmark suite of the paper (Table 5) expressed as synthetic
//! workload specifications.
//!
//! Each benchmark of the MediaBench, Olden and SPEC2000 suites is modelled
//! by a [`WorkloadSpec`] whose phases reproduce the behaviour that matters
//! to the MCD control algorithm: instruction mix (which domains are
//! exercised), memory footprint and locality (how memory-bound the
//! load/store domain is), branch predictability (front-end stalls) and
//! dependency distances (exploitable ILP).  The `epic decode` window used
//! by the paper's Figures 2 and 3 — the floating-point unit idle except for
//! two distinct bursts — is available as [`Benchmark::EpicDecode`].

use serde::{Deserialize, Serialize};

use crate::spec::{BranchBehavior, InstructionMix, MemoryBehavior, Phase, WorkloadSpec};

/// Benchmark suite of origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Suite {
    /// MediaBench multimedia applications.
    MediaBench,
    /// Olden pointer-intensive benchmarks.
    Olden,
    /// SPEC2000 integer benchmarks.
    SpecInt,
    /// SPEC2000 floating-point benchmarks.
    SpecFp,
}

impl Suite {
    /// Human-readable suite name.
    pub fn name(self) -> &'static str {
        match self {
            Suite::MediaBench => "MediaBench",
            Suite::Olden => "Olden",
            Suite::SpecInt => "Spec2000 Integer",
            Suite::SpecFp => "Spec2000 Floating-Point",
        }
    }
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The benchmarks of the paper's Table 5 (plus the `epic decode` window
/// used by Figures 2 and 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Benchmark {
    // MediaBench.
    Adpcm,
    Epic,
    Jpeg,
    G721,
    Gsm,
    Ghostscript,
    Mesa,
    Mpeg2,
    Pegwit,
    // Olden.
    Bh,
    Bisort,
    Em3d,
    Health,
    Mst,
    Perimeter,
    Power,
    Treeadd,
    Tsp,
    Voronoi,
    // SPEC2000 integer.
    Bzip2,
    Gcc,
    Gzip,
    Mcf,
    Parser,
    Vortex,
    Vpr,
    // SPEC2000 floating point.
    Art,
    Equake,
    MesaSpec,
    Swim,
    /// The `epic decode` simulation window of Figures 2 and 3 (not part of
    /// the 30-benchmark averages; `Epic` is).
    EpicDecode,
}

impl Benchmark {
    /// The 30 benchmarks whose weighted average the paper reports
    /// (Figure 4 / Table 6), in the paper's presentation order.
    pub const ALL: [Benchmark; 30] = [
        Benchmark::Adpcm,
        Benchmark::Epic,
        Benchmark::Jpeg,
        Benchmark::G721,
        Benchmark::Gsm,
        Benchmark::Ghostscript,
        Benchmark::Mesa,
        Benchmark::Mpeg2,
        Benchmark::Pegwit,
        Benchmark::Bh,
        Benchmark::Bisort,
        Benchmark::Em3d,
        Benchmark::Health,
        Benchmark::Mst,
        Benchmark::Perimeter,
        Benchmark::Power,
        Benchmark::Treeadd,
        Benchmark::Tsp,
        Benchmark::Voronoi,
        Benchmark::Art,
        Benchmark::Bzip2,
        Benchmark::Equake,
        Benchmark::Gcc,
        Benchmark::Gzip,
        Benchmark::Mcf,
        Benchmark::MesaSpec,
        Benchmark::Parser,
        Benchmark::Swim,
        Benchmark::Vortex,
        Benchmark::Vpr,
    ];

    /// The benchmark's name as it appears on the paper's figure axes.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Adpcm => "adpcm",
            Benchmark::Epic => "epic",
            Benchmark::Jpeg => "jpeg",
            Benchmark::G721 => "g721",
            Benchmark::Gsm => "gsm",
            Benchmark::Ghostscript => "ghostscript",
            Benchmark::Mesa => "mesa",
            Benchmark::Mpeg2 => "mpeg2",
            Benchmark::Pegwit => "pegwit",
            Benchmark::Bh => "bh",
            Benchmark::Bisort => "bisort",
            Benchmark::Em3d => "em3d",
            Benchmark::Health => "health",
            Benchmark::Mst => "mst",
            Benchmark::Perimeter => "perimeter",
            Benchmark::Power => "power",
            Benchmark::Treeadd => "treeadd",
            Benchmark::Tsp => "tsp",
            Benchmark::Voronoi => "voronoi",
            Benchmark::Bzip2 => "bzip2",
            Benchmark::Gcc => "gcc",
            Benchmark::Gzip => "gzip",
            Benchmark::Mcf => "mcf",
            Benchmark::Parser => "parser",
            Benchmark::Vortex => "vortex",
            Benchmark::Vpr => "vpr",
            Benchmark::Art => "art",
            Benchmark::Equake => "equake",
            Benchmark::MesaSpec => "mesa (spec)",
            Benchmark::Swim => "swim",
            Benchmark::EpicDecode => "epic decode",
        }
    }

    /// The suite the benchmark belongs to.
    pub fn suite(self) -> Suite {
        use Benchmark::*;
        match self {
            Adpcm | Epic | EpicDecode | Jpeg | G721 | Gsm | Ghostscript | Mesa | Mpeg2 | Pegwit => {
                Suite::MediaBench
            }
            Bh | Bisort | Em3d | Health | Mst | Perimeter | Power | Treeadd | Tsp | Voronoi => {
                Suite::Olden
            }
            Bzip2 | Gcc | Gzip | Mcf | Parser | Vortex | Vpr => Suite::SpecInt,
            Art | Equake | MesaSpec | Swim => Suite::SpecFp,
        }
    }

    /// The paper's simulation window for this benchmark, in millions of
    /// instructions (Table 5; weighted totals for multi-program
    /// benchmarks).
    pub fn paper_window_minstr(self) -> f64 {
        use Benchmark::*;
        match self {
            Adpcm => 12.1,
            Epic => 59.7,
            EpicDecode => 6.7,
            Jpeg => 20.1,
            G721 => 400.0,
            Gsm => 274.0,
            Ghostscript => 200.0,
            Mesa => 128.1,
            Mpeg2 => 371.0,
            Pegwit => 62.4,
            Bh => 200.0,
            Bisort => 127.0,
            Em3d => 49.0,
            Health => 47.0,
            Mst => 100.0,
            Perimeter => 200.0,
            Power => 200.0,
            Treeadd => 189.0,
            Tsp => 200.0,
            Voronoi => 200.0,
            Bzip2 | Gzip | Mcf | Parser | Vortex | Vpr | Gcc => 100.0,
            Art | Equake | MesaSpec | Swim => 100.0,
        }
    }

    /// Builds the synthetic workload specification of this benchmark.
    pub fn spec(self) -> WorkloadSpec {
        use Benchmark::*;
        let spec = |phases: Vec<Phase>| {
            WorkloadSpec::new(
                self.name(),
                self.suite().name(),
                phases,
                self.paper_window_minstr(),
            )
        };

        // Common building blocks.
        let media_branches = BranchBehavior {
            predictability: 0.96,
            taken_bias: 0.8,
            static_branches: 96,
        };
        let olden_branches = BranchBehavior {
            predictability: 0.88,
            taken_bias: 0.65,
            static_branches: 256,
        };
        let specint_branches = BranchBehavior::irregular();
        let specfp_branches = BranchBehavior {
            predictability: 0.985,
            taken_bias: 0.9,
            static_branches: 48,
        };

        let small_mem = MemoryBehavior::cache_resident();
        let l2_resident = MemoryBehavior {
            footprint_bytes: 512 * 1024,
            hot_set_bytes: 96 * 1024,
            hot_fraction: 0.75,
            streaming_fraction: 0.3,
            pointer_chase_fraction: 0.05,
        };
        let pointer_mem = MemoryBehavior {
            footprint_bytes: 4 * 1024 * 1024,
            hot_set_bytes: 256 * 1024,
            hot_fraction: 0.92,
            streaming_fraction: 0.05,
            pointer_chase_fraction: 0.4,
        };
        let huge_mem = MemoryBehavior {
            footprint_bytes: 16 * 1024 * 1024,
            hot_set_bytes: 512 * 1024,
            hot_fraction: 0.88,
            streaming_fraction: 0.05,
            pointer_chase_fraction: 0.45,
        };
        let stream_mem = MemoryBehavior::streaming();

        match self {
            // ---------------- MediaBench ----------------
            Adpcm => spec(vec![
                // Tight serial integer kernel, tiny working set.
                Phase::new(
                    1.0,
                    InstructionMix {
                        int_alu: 0.52,
                        int_mul: 0.01,
                        fp_add: 0.0,
                        fp_mul: 0.0,
                        fp_div: 0.0,
                        load: 0.22,
                        store: 0.08,
                        branch: 0.17,
                    },
                )
                .with_memory(small_mem)
                .with_branches(media_branches)
                .with_dep_distance(2.5),
            ]),
            Epic | EpicDecode => {
                // Integer filtering with two distinct floating-point phases
                // (the wavelet reconstruction), exactly the structure shown
                // in the paper's Figure 3.
                let int_phase = |w| {
                    Phase::new(
                        w,
                        InstructionMix {
                            int_alu: 0.44,
                            int_mul: 0.02,
                            fp_add: 0.0,
                            fp_mul: 0.0,
                            fp_div: 0.0,
                            load: 0.27,
                            store: 0.10,
                            branch: 0.17,
                        },
                    )
                    .with_memory(l2_resident)
                    .with_branches(media_branches)
                    .with_dep_distance(4.0)
                };
                let fp_phase = |w| {
                    Phase::new(
                        w,
                        InstructionMix {
                            int_alu: 0.20,
                            int_mul: 0.01,
                            fp_add: 0.20,
                            fp_mul: 0.16,
                            fp_div: 0.01,
                            load: 0.26,
                            store: 0.08,
                            branch: 0.08,
                        },
                    )
                    .with_memory(stream_mem)
                    .with_branches(media_branches)
                    .with_dep_distance(8.0)
                };
                spec(vec![
                    int_phase(0.25),
                    fp_phase(0.18),
                    int_phase(0.22),
                    fp_phase(0.12),
                    int_phase(0.23),
                ])
            }
            Jpeg => spec(vec![
                Phase::new(
                    0.6,
                    InstructionMix {
                        int_alu: 0.46,
                        int_mul: 0.06,
                        fp_add: 0.0,
                        fp_mul: 0.0,
                        fp_div: 0.0,
                        load: 0.25,
                        store: 0.09,
                        branch: 0.14,
                    },
                )
                .with_memory(l2_resident)
                .with_branches(media_branches)
                .with_dep_distance(6.0),
                Phase::new(
                    0.4,
                    InstructionMix {
                        int_alu: 0.40,
                        int_mul: 0.10,
                        fp_add: 0.02,
                        fp_mul: 0.02,
                        fp_div: 0.0,
                        load: 0.26,
                        store: 0.08,
                        branch: 0.12,
                    },
                )
                .with_memory(stream_mem)
                .with_branches(media_branches)
                .with_dep_distance(7.0),
            ]),
            G721 => spec(vec![Phase::new(
                1.0,
                InstructionMix {
                    int_alu: 0.50,
                    int_mul: 0.04,
                    fp_add: 0.0,
                    fp_mul: 0.0,
                    fp_div: 0.0,
                    load: 0.22,
                    store: 0.07,
                    branch: 0.17,
                },
            )
            .with_memory(small_mem)
            .with_branches(media_branches)
            .with_dep_distance(3.0)]),
            Gsm => spec(vec![Phase::new(
                1.0,
                InstructionMix {
                    int_alu: 0.48,
                    int_mul: 0.08,
                    fp_add: 0.0,
                    fp_mul: 0.0,
                    fp_div: 0.0,
                    load: 0.22,
                    store: 0.07,
                    branch: 0.15,
                },
            )
            .with_memory(small_mem)
            .with_branches(media_branches)
            .with_dep_distance(4.5)]),
            Ghostscript => spec(vec![
                Phase::new(0.7, InstructionMix::integer_code())
                    .with_memory(l2_resident)
                    .with_branches(specint_branches)
                    .with_dep_distance(5.0),
                Phase::new(
                    0.3,
                    InstructionMix {
                        int_alu: 0.36,
                        int_mul: 0.02,
                        fp_add: 0.06,
                        fp_mul: 0.04,
                        fp_div: 0.01,
                        load: 0.28,
                        store: 0.10,
                        branch: 0.13,
                    },
                )
                .with_memory(l2_resident)
                .with_branches(specint_branches)
                .with_dep_distance(5.0),
            ]),
            Mesa => spec(vec![
                // 3-D rendering: alternating geometry (FP) and rasterisation
                // (integer) phases.
                Phase::new(0.35, InstructionMix::fp_code())
                    .with_memory(l2_resident)
                    .with_branches(media_branches)
                    .with_dep_distance(9.0),
                Phase::new(0.4, InstructionMix::integer_code())
                    .with_memory(stream_mem)
                    .with_branches(media_branches)
                    .with_dep_distance(5.0),
                Phase::new(0.25, InstructionMix::fp_code())
                    .with_memory(l2_resident)
                    .with_branches(media_branches)
                    .with_dep_distance(9.0),
            ]),
            Mpeg2 => spec(vec![
                Phase::new(
                    0.55,
                    InstructionMix {
                        int_alu: 0.44,
                        int_mul: 0.07,
                        fp_add: 0.03,
                        fp_mul: 0.02,
                        fp_div: 0.0,
                        load: 0.26,
                        store: 0.07,
                        branch: 0.11,
                    },
                )
                .with_memory(stream_mem)
                .with_branches(media_branches)
                .with_dep_distance(8.0),
                Phase::new(
                    0.45,
                    InstructionMix {
                        int_alu: 0.48,
                        int_mul: 0.04,
                        fp_add: 0.0,
                        fp_mul: 0.0,
                        fp_div: 0.0,
                        load: 0.26,
                        store: 0.08,
                        branch: 0.14,
                    },
                )
                .with_memory(l2_resident)
                .with_branches(media_branches)
                .with_dep_distance(5.0),
            ]),
            Pegwit => spec(vec![
                // Elliptic-curve cryptography: long serial integer chains.
                Phase::new(
                    1.0,
                    InstructionMix {
                        int_alu: 0.55,
                        int_mul: 0.09,
                        fp_add: 0.0,
                        fp_mul: 0.0,
                        fp_div: 0.0,
                        load: 0.17,
                        store: 0.05,
                        branch: 0.14,
                    },
                )
                .with_memory(small_mem)
                .with_branches(media_branches)
                .with_dep_distance(2.0),
            ]),

            // ---------------- Olden ----------------
            Bh => spec(vec![
                // Barnes-Hut: pointer chasing plus a real FP force phase.
                Phase::new(0.45, InstructionMix::pointer_chasing())
                    .with_memory(pointer_mem)
                    .with_branches(olden_branches)
                    .with_dep_distance(3.0),
                Phase::new(
                    0.55,
                    InstructionMix {
                        int_alu: 0.26,
                        int_mul: 0.01,
                        fp_add: 0.16,
                        fp_mul: 0.12,
                        fp_div: 0.02,
                        load: 0.28,
                        store: 0.06,
                        branch: 0.09,
                    },
                )
                .with_memory(pointer_mem)
                .with_branches(olden_branches)
                .with_dep_distance(7.0),
            ]),
            Bisort | Perimeter | Treeadd | Tsp => {
                spec(vec![Phase::new(1.0, InstructionMix::pointer_chasing())
                    .with_memory(pointer_mem)
                    .with_branches(olden_branches)
                    .with_dep_distance(3.0)])
            }
            Em3d | Health | Mst => spec(vec![
                // The memory-bound Olden trio: enormous footprints, heavy
                // pointer chasing.
                Phase::new(
                    1.0,
                    InstructionMix {
                        int_alu: 0.30,
                        int_mul: 0.0,
                        fp_add: 0.02,
                        fp_mul: 0.01,
                        fp_div: 0.0,
                        load: 0.40,
                        store: 0.08,
                        branch: 0.19,
                    },
                )
                .with_memory(huge_mem)
                .with_branches(olden_branches)
                .with_dep_distance(2.5),
            ]),
            Power => spec(vec![
                // Power-system optimisation: mostly floating point over a
                // tree, modest footprint.
                Phase::new(
                    1.0,
                    InstructionMix {
                        int_alu: 0.24,
                        int_mul: 0.01,
                        fp_add: 0.20,
                        fp_mul: 0.15,
                        fp_div: 0.03,
                        load: 0.24,
                        store: 0.05,
                        branch: 0.08,
                    },
                )
                .with_memory(l2_resident)
                .with_branches(olden_branches)
                .with_dep_distance(6.0),
            ]),
            Voronoi => spec(vec![
                Phase::new(0.6, InstructionMix::pointer_chasing())
                    .with_memory(pointer_mem)
                    .with_branches(olden_branches)
                    .with_dep_distance(3.0),
                Phase::new(
                    0.4,
                    InstructionMix {
                        int_alu: 0.28,
                        int_mul: 0.01,
                        fp_add: 0.14,
                        fp_mul: 0.10,
                        fp_div: 0.02,
                        load: 0.28,
                        store: 0.07,
                        branch: 0.10,
                    },
                )
                .with_memory(pointer_mem)
                .with_branches(olden_branches)
                .with_dep_distance(5.0),
            ]),

            // ---------------- SPEC2000 integer ----------------
            Bzip2 | Gzip => spec(vec![
                Phase::new(
                    0.5,
                    InstructionMix {
                        int_alu: 0.46,
                        int_mul: 0.01,
                        fp_add: 0.0,
                        fp_mul: 0.0,
                        fp_div: 0.0,
                        load: 0.28,
                        store: 0.09,
                        branch: 0.16,
                    },
                )
                .with_memory(l2_resident)
                .with_branches(specint_branches)
                .with_dep_distance(4.0),
                Phase::new(
                    0.5,
                    InstructionMix {
                        int_alu: 0.42,
                        int_mul: 0.01,
                        fp_add: 0.0,
                        fp_mul: 0.0,
                        fp_div: 0.0,
                        load: 0.30,
                        store: 0.11,
                        branch: 0.16,
                    },
                )
                .with_memory(MemoryBehavior {
                    footprint_bytes: 2 * 1024 * 1024,
                    hot_set_bytes: 256 * 1024,
                    hot_fraction: 0.93,
                    streaming_fraction: 0.25,
                    pointer_chase_fraction: 0.1,
                })
                .with_branches(specint_branches)
                .with_dep_distance(4.0),
            ]),
            Gcc => spec(vec![
                // Large, branchy code with a sizeable data footprint.
                Phase::new(
                    1.0,
                    InstructionMix {
                        int_alu: 0.40,
                        int_mul: 0.01,
                        fp_add: 0.0,
                        fp_mul: 0.0,
                        fp_div: 0.0,
                        load: 0.29,
                        store: 0.10,
                        branch: 0.20,
                    },
                )
                .with_memory(MemoryBehavior {
                    footprint_bytes: 4 * 1024 * 1024,
                    hot_set_bytes: 512 * 1024,
                    hot_fraction: 0.93,
                    streaming_fraction: 0.1,
                    pointer_chase_fraction: 0.2,
                })
                .with_branches(BranchBehavior {
                    predictability: 0.9,
                    taken_bias: 0.6,
                    static_branches: 1024,
                })
                .with_dep_distance(3.5),
            ]),
            Mcf => spec(vec![
                // The famously memory-bound network-simplex solver: nearly
                // every load misses all the way to main memory.
                Phase::new(
                    1.0,
                    InstructionMix {
                        int_alu: 0.28,
                        int_mul: 0.0,
                        fp_add: 0.0,
                        fp_mul: 0.0,
                        fp_div: 0.0,
                        load: 0.42,
                        store: 0.06,
                        branch: 0.24,
                    },
                )
                .with_memory(MemoryBehavior {
                    footprint_bytes: 16 * 1024 * 1024,
                    hot_set_bytes: 1024 * 1024,
                    hot_fraction: 0.8,
                    streaming_fraction: 0.02,
                    pointer_chase_fraction: 0.35,
                })
                .with_branches(BranchBehavior {
                    predictability: 0.72,
                    taken_bias: 0.55,
                    static_branches: 256,
                })
                .with_dep_distance(2.5),
            ]),
            Parser | Vortex | Vpr => spec(vec![Phase::new(
                1.0,
                InstructionMix {
                    int_alu: 0.41,
                    int_mul: 0.01,
                    fp_add: 0.0,
                    fp_mul: 0.0,
                    fp_div: 0.0,
                    load: 0.29,
                    store: 0.10,
                    branch: 0.19,
                },
            )
            .with_memory(pointer_mem)
            .with_branches(specint_branches)
            .with_dep_distance(4.0)]),

            // ---------------- SPEC2000 floating point ----------------
            Art => spec(vec![
                // Neural-network simulation: FP streaming over arrays that
                // exceed the L2.
                Phase::new(
                    1.0,
                    InstructionMix {
                        int_alu: 0.20,
                        int_mul: 0.0,
                        fp_add: 0.22,
                        fp_mul: 0.18,
                        fp_div: 0.01,
                        load: 0.28,
                        store: 0.05,
                        branch: 0.06,
                    },
                )
                .with_memory(MemoryBehavior {
                    footprint_bytes: 16 * 1024 * 1024,
                    hot_set_bytes: 128 * 1024,
                    hot_fraction: 0.7,
                    streaming_fraction: 0.7,
                    pointer_chase_fraction: 0.0,
                })
                .with_branches(specfp_branches)
                .with_dep_distance(12.0),
            ]),
            Equake => spec(vec![
                Phase::new(0.3, InstructionMix::integer_code())
                    .with_memory(pointer_mem)
                    .with_branches(specfp_branches)
                    .with_dep_distance(4.0),
                Phase::new(
                    0.7,
                    InstructionMix {
                        int_alu: 0.18,
                        int_mul: 0.0,
                        fp_add: 0.24,
                        fp_mul: 0.20,
                        fp_div: 0.02,
                        load: 0.26,
                        store: 0.06,
                        branch: 0.04,
                    },
                )
                .with_memory(MemoryBehavior {
                    footprint_bytes: 24 * 1024 * 1024,
                    hot_set_bytes: 256 * 1024,
                    hot_fraction: 0.7,
                    streaming_fraction: 0.5,
                    pointer_chase_fraction: 0.1,
                })
                .with_branches(specfp_branches)
                .with_dep_distance(10.0),
            ]),
            MesaSpec => spec(vec![
                Phase::new(0.5, InstructionMix::fp_code())
                    .with_memory(l2_resident)
                    .with_branches(specfp_branches)
                    .with_dep_distance(9.0),
                Phase::new(0.5, InstructionMix::integer_code())
                    .with_memory(stream_mem)
                    .with_branches(media_branches)
                    .with_dep_distance(5.0),
            ]),
            Swim => spec(vec![
                // Shallow-water stencils: pure FP streaming, huge arrays.
                Phase::new(
                    1.0,
                    InstructionMix {
                        int_alu: 0.14,
                        int_mul: 0.0,
                        fp_add: 0.28,
                        fp_mul: 0.24,
                        fp_div: 0.01,
                        load: 0.24,
                        store: 0.07,
                        branch: 0.02,
                    },
                )
                .with_memory(MemoryBehavior {
                    footprint_bytes: 32 * 1024 * 1024,
                    hot_set_bytes: 64 * 1024,
                    hot_fraction: 0.5,
                    streaming_fraction: 0.85,
                    pointer_chase_fraction: 0.0,
                })
                .with_branches(specfp_branches)
                .with_dep_distance(14.0),
            ]),
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_suite_has_30_benchmarks_with_unique_names() {
        assert_eq!(Benchmark::ALL.len(), 30);
        let mut names = std::collections::BTreeSet::new();
        for b in Benchmark::ALL {
            assert!(names.insert(b.name()), "duplicate name {}", b.name());
        }
        // epic decode is an extra trace workload, not one of the 30.
        assert!(!Benchmark::ALL.contains(&Benchmark::EpicDecode));
    }

    #[test]
    fn suite_membership_counts_match_table5() {
        let count = |s: Suite| Benchmark::ALL.iter().filter(|b| b.suite() == s).count();
        assert_eq!(count(Suite::MediaBench), 9);
        assert_eq!(count(Suite::Olden), 10);
        assert_eq!(count(Suite::SpecInt), 7);
        assert_eq!(count(Suite::SpecFp), 4);
    }

    #[test]
    fn every_spec_validates() {
        for b in Benchmark::ALL.iter().chain([&Benchmark::EpicDecode]) {
            let spec = b.spec();
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            assert_eq!(spec.name, b.name());
            assert_eq!(spec.suite, b.suite().name());
            assert!(spec.paper_window_minstr > 0.0);
        }
    }

    #[test]
    fn epic_decode_has_distinct_fp_phases() {
        let spec = Benchmark::EpicDecode.spec();
        assert!(
            spec.phases.len() >= 3,
            "epic decode needs idle/burst/idle FP structure"
        );
        let fp_phases = spec
            .phases
            .iter()
            .filter(|p| p.mix.fp_fraction() > 0.1)
            .count();
        let int_phases = spec
            .phases
            .iter()
            .filter(|p| p.mix.fp_fraction() < 0.01)
            .count();
        assert!(fp_phases >= 2, "two FP bursts expected (paper Figure 3)");
        assert!(
            int_phases >= 2,
            "FP-idle stretches expected between the bursts"
        );
    }

    #[test]
    fn mcf_is_the_most_memory_hostile_integer_benchmark() {
        let mcf = Benchmark::Mcf.spec();
        let gzip = Benchmark::Gzip.spec();
        let mcf_mem = &mcf.phases[0].memory;
        assert!(mcf_mem.footprint_bytes >= 8 * 1024 * 1024);
        assert!(mcf_mem.pointer_chase_fraction >= 0.3);
        let gzip_max_footprint = gzip
            .phases
            .iter()
            .map(|p| p.memory.footprint_bytes)
            .max()
            .unwrap();
        assert!(mcf_mem.footprint_bytes > gzip_max_footprint);
        assert!(mcf.phases[0].mix.mem_fraction() > 0.4);
    }

    #[test]
    fn fp_benchmarks_have_fp_work_and_integer_benchmarks_do_not() {
        for b in [
            Benchmark::Art,
            Benchmark::Equake,
            Benchmark::Swim,
            Benchmark::MesaSpec,
        ] {
            assert!(
                b.spec().avg_fp_fraction() > 0.15,
                "{} should be FP heavy",
                b.name()
            );
        }
        for b in [
            Benchmark::Gzip,
            Benchmark::Mcf,
            Benchmark::Parser,
            Benchmark::Adpcm,
            Benchmark::G721,
        ] {
            assert!(
                b.spec().avg_fp_fraction() < 0.02,
                "{} should have no FP",
                b.name()
            );
        }
    }

    #[test]
    fn olden_benchmarks_are_pointer_chasers() {
        for b in [
            Benchmark::Em3d,
            Benchmark::Health,
            Benchmark::Mst,
            Benchmark::Treeadd,
        ] {
            let spec = b.spec();
            let p = &spec.phases[0];
            assert!(
                p.memory.pointer_chase_fraction > 0.3 || p.memory.footprint_bytes > 4 * 1024 * 1024,
                "{} should look like a pointer-chasing Olden benchmark",
                b.name()
            );
        }
    }

    #[test]
    fn display_and_suite_names() {
        assert_eq!(Benchmark::Mcf.to_string(), "mcf");
        assert_eq!(Suite::MediaBench.to_string(), "MediaBench");
        assert_eq!(Benchmark::EpicDecode.suite(), Suite::MediaBench);
        assert_eq!(Benchmark::Swim.suite(), Suite::SpecFp);
    }
}
