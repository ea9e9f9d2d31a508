//! The paper's tables and figures and the design ablations, as one
//! registry ([`FIGURES`]) that the `figures` binary runs and writes into
//! `results/` (or any `--out` directory).
//!
//! Most entries have one shape: a row per arrival rate, a column per
//! labelled configuration variant ([`Column`]), run as one [`run_grid`]
//! and printed as a 4-decimal admission-probability table ([`ap_grid`]).
//! The rest reuse the same grid and print other cells.

use crate::json::JsonValue;
use crate::{
    default_jobs, run_grid, ReplicatedMetrics, RunSettings, Table, LAMBDA_GRID, RETRIAL_GRID,
    TABLE_LAMBDAS,
};
use anycast_analysis::scenario::{build_paper_scenario, AnalyzedSystem};
use anycast_analysis::{predict_ap_batch, BlockingModel};
use anycast_chaos::FaultPlan;
use anycast_dac::experiment::{
    ArrivalProcess, DemandClass, ExperimentConfig, GroupSpec, SystemSpec,
};
use anycast_dac::policy::{HistoryMode, PolicySpec};
use anycast_dac::RetrialPolicy;
use anycast_net::{topologies, Bandwidth, NodeId, Topology};
use std::path::{Path, PathBuf};

/// What one entry produces: its text table and, for some, a
/// machine-readable copy of its series.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// The table(s), as written to `<name>.txt`.
    pub text: String,
    /// The series, as written to `<name>.json`.
    pub json: Option<JsonValue>,
}

impl Output {
    fn text(text: String) -> Self {
        Output { text, json: None }
    }
}

/// One artifact of `results/`: its file stem and how to compute it.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The file stem under `results/`, and the name the driver takes.
    pub name: &'static str,
    /// Runs the experiment at the given settings.
    pub run: fn(&RunSettings) -> Output,
}

impl Figure {
    /// Runs the entry and writes `dir/<name>.txt`, plus `dir/<name>.json`
    /// where the entry has a series; returns the text.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, settings: &RunSettings, dir: &Path) -> std::io::Result<String> {
        let out = (self.run)(settings);
        std::fs::write(dir.join(format!("{}.txt", self.name)), &out.text)?;
        if let Some(json) = &out.json {
            std::fs::write(
                dir.join(format!("{}.json", self.name)),
                json.render() + "\n",
            )?;
        }
        Ok(out.text)
    }
}

const fn figure(name: &'static str, run: fn(&RunSettings) -> Output) -> Figure {
    Figure { name, run }
}

/// Every table, figure and ablation, in the order the driver runs them.
pub const FIGURES: [Figure; 17] = [
    figure("fig3_ed_sensitivity", |s| sensitivity(3, PolicySpec::Ed, s)),
    figure("fig4_wddh_sensitivity", |s| {
        sensitivity(4, PolicySpec::wd_dh_default(), s)
    }),
    figure("fig5_wddb_sensitivity", |s| {
        sensitivity(5, PolicySpec::WdDb, s)
    }),
    figure("fig6_ap_comparison", comparison_figure),
    figure("fig7_avg_retrials", retrials_figure),
    figure("table1_ed1_analysis_vs_sim", |s| {
        analysis_table(1, AnalyzedSystem::Ed1, s)
    }),
    figure("table2_sp_analysis_vs_sim", |s| {
        analysis_table(2, AnalyzedSystem::Sp, s)
    }),
    figure("ablation_alpha", alpha_ablation),
    figure("ablation_history_mode", history_mode_ablation),
    figure("ablation_topology", topology_ablation),
    figure("ablation_group_size", group_size_ablation),
    figure("ablation_adaptive_retrial", adaptive_retrial_ablation),
    figure("ablation_demand_mix", demand_mix_ablation),
    figure("ablation_multipath", multipath_ablation),
    figure("ablation_multigroup", multigroup_ablation),
    figure("ablation_burstiness", burstiness_ablation),
    figure("ablation_faults", faults_ablation),
];

/// One labelled variant of a grid: its header and its configuration at
/// each row value (the arrival rate, or the link MTBF for the fault
/// ablation). The run horizon comes from the [`RunSettings`].
pub struct Column<'a> {
    label: String,
    config: Box<dyn Fn(f64) -> ExperimentConfig + 'a>,
}

/// A [`Column`] labelled `label`.
fn column<'a>(
    label: impl Into<String>,
    config: impl Fn(f64) -> ExperimentConfig + 'a,
) -> Column<'a> {
    Column {
        label: label.into(),
        config: Box::new(config),
    }
}

/// One column per system, labelled by [`SystemSpec::label`]; `config`
/// builds each cell from the row value and the system.
pub fn system_columns<'a>(
    systems: &[SystemSpec],
    config: impl Fn(f64, SystemSpec) -> ExperimentConfig + Copy + 'a,
) -> Vec<Column<'a>> {
    systems
        .iter()
        .map(|&system| column(system.label(), move |x| config(x, system)))
        .collect()
}

fn labels<'c>(columns: &'c [Column]) -> impl Iterator<Item = String> + 'c {
    columns.iter().map(|c| c.label.clone())
}

/// The five systems of Figure 6 / Figure 7 with the paper's `R = 2`.
pub fn comparison_systems() -> Vec<SystemSpec> {
    vec![
        SystemSpec::dac(PolicySpec::Ed, 2),
        SystemSpec::dac(PolicySpec::wd_dh_default(), 2),
        SystemSpec::dac(PolicySpec::WdDb, 2),
        SystemSpec::ShortestPath,
        SystemSpec::GlobalDynamic,
    ]
}

/// Runs every column at every row value as one grid; `rows[i][j]` is row
/// value `i` under column `j`.
pub fn run_columns(
    topo: &Topology,
    xs: &[f64],
    columns: &[Column],
    settings: &RunSettings,
) -> Vec<Vec<ReplicatedMetrics>> {
    let configs: Vec<ExperimentConfig> = xs
        .iter()
        .flat_map(|&x| {
            columns.iter().map(move |c| {
                (c.config)(x)
                    .with_warmup_secs(settings.warmup_secs)
                    .with_measure_secs(settings.measure_secs)
            })
        })
        .collect();
    run_grid(topo, &configs, settings.active_seeds(), settings.jobs)
        .chunks(columns.len())
        .map(<[_]>::to_vec)
        .collect()
}

/// Renders one table row per `rows` entry: `corner` then `headers` across
/// the top, `row_labels` down the side, and `cells` formatting each row.
fn grid_table(
    corner: &str,
    row_labels: impl Iterator<Item = String>,
    headers: impl Iterator<Item = String>,
    rows: &[Vec<ReplicatedMetrics>],
    cells: impl Fn(&[ReplicatedMetrics]) -> Vec<String>,
) -> String {
    let mut table = Table::new(std::iter::once(corner.to_string()).chain(headers).collect());
    for (label, row) in row_labels.zip(rows) {
        table.row(std::iter::once(label).chain(cells(row)).collect());
    }
    table.render()
}

/// [`grid_table`] with one row per arrival rate.
fn lambda_table(
    lambdas: &[f64],
    headers: impl Iterator<Item = String>,
    rows: &[Vec<ReplicatedMetrics>],
    cells: impl Fn(&[ReplicatedMetrics]) -> Vec<String>,
) -> String {
    let row_labels = lambdas.iter().map(|l| format!("{l:.1}"));
    grid_table("lambda", row_labels, headers, rows, cells)
}

fn ap(m: &ReplicatedMetrics) -> String {
    format!("{:.4}", m.admission_probability)
}

fn ap_cells(row: &[ReplicatedMetrics]) -> Vec<String> {
    row.iter().map(ap).collect()
}

/// The common shape: `title`, a blank line, and the admission probability
/// of every column at every λ. Returns the text and the grid.
pub fn ap_grid(
    title: &str,
    topo: &Topology,
    lambdas: &[f64],
    columns: &[Column],
    settings: &RunSettings,
) -> (String, Vec<Vec<ReplicatedMetrics>>) {
    let rows = run_columns(topo, lambdas, columns, settings);
    let table = lambda_table(lambdas, labels(columns), &rows, ap_cells);
    (format!("{title}\n\n{table}"), rows)
}

/// One number of a grid cell.
type Metric = fn(&ReplicatedMetrics) -> f64;

/// A JSON series per column: its label and one array per `(key, metric)`.
fn series(
    columns: &[Column],
    rows: &[Vec<ReplicatedMetrics>],
    fields: &[(&'static str, Metric)],
) -> JsonValue {
    let series = columns.iter().enumerate().map(|(j, c)| {
        let metrics = fields
            .iter()
            .map(|&(key, f)| (key, JsonValue::nums(rows.iter().map(|r| f(&r[j])))));
        JsonValue::obj(std::iter::once(("label", JsonValue::Str(c.label.clone()))).chain(metrics))
    });
    JsonValue::Arr(series.collect())
}

/// Figures 3–5: sensitivity of AP to the retrial limit `R ∈ 1..=5` for one
/// destination-selection algorithm.
fn sensitivity(figure: u32, policy: PolicySpec, settings: &RunSettings) -> Output {
    let columns: Vec<Column> = RETRIAL_GRID
        .iter()
        .map(|&r| {
            column(format!("R={r}"), move |l| {
                ExperimentConfig::paper_defaults(l, SystemSpec::dac(policy, r))
            })
        })
        .collect();
    let title = format!(
        "Figure {figure}: admission probability of <{},R> vs arrival rate",
        policy.name()
    );
    Output::text(ap_grid(&title, &topologies::mci(), &LAMBDA_GRID, &columns, settings).0)
}

/// Figure 6: AP of `<ED,2>`, `<WD/D+H,2>`, `<WD/D+B,2>` vs the SP and GDI
/// baselines.
fn comparison_figure(settings: &RunSettings) -> Output {
    let columns = system_columns(&comparison_systems(), ExperimentConfig::paper_defaults);
    let (text, rows) = ap_grid(
        "Figure 6: admission probability of DAC systems vs baselines",
        &topologies::mci(),
        &LAMBDA_GRID,
        &columns,
        settings,
    );
    let json = JsonValue::obj([
        ("figure", JsonValue::Str("fig6_ap_comparison".into())),
        ("lambda", JsonValue::nums(LAMBDA_GRID)),
        (
            "series",
            series(
                &columns,
                &rows,
                &[
                    ("admission_probability", |m| m.admission_probability),
                    ("ap_stderr", |m| m.ap_stderr),
                ],
            ),
        ),
    ]);
    Output {
        text,
        json: Some(json),
    }
}

/// Figure 7: average number of destinations tried per request for the
/// three DAC systems (R = 2), plus the signaling messages that cost.
fn retrials_figure(settings: &RunSettings) -> Output {
    let columns = system_columns(&comparison_systems()[..3], ExperimentConfig::paper_defaults);
    let rows = run_columns(&topologies::mci(), &LAMBDA_GRID, &columns, settings);
    let headers = columns
        .iter()
        .flat_map(|c| [format!("{} tries", c.label), format!("{} msg/req", c.label)]);
    let table = lambda_table(&LAMBDA_GRID, headers, &rows, |row| {
        row.iter()
            .flat_map(|m| {
                [
                    format!("{:.4}", m.mean_tries),
                    format!("{:.2}", m.messages_per_request),
                ]
            })
            .collect()
    });
    let json = JsonValue::obj([
        ("figure", JsonValue::Str("fig7_avg_retrials".into())),
        ("lambda", JsonValue::nums(LAMBDA_GRID)),
        (
            "series",
            series(
                &columns,
                &rows,
                &[
                    ("mean_tries", |m| m.mean_tries),
                    ("messages_per_request", |m| m.messages_per_request),
                ],
            ),
        ),
    ]);
    Output {
        text: format!("Figure 7: average number of tries per request (R = 2)\n\n{table}"),
        json: Some(json),
    }
}

/// Tables 1 and 2: analytical admission probability (Appendix A) against
/// simulation, for `<ED,1>` or `SP` at λ ∈ {5, 20, 35, 50}.
fn analysis_table(table: u32, system: AnalyzedSystem, settings: &RunSettings) -> Output {
    let topo = topologies::mci();
    let (sim_system, name) = match system {
        AnalyzedSystem::Ed1 => (SystemSpec::dac(PolicySpec::Ed, 1), "<ED,1>"),
        AnalyzedSystem::Sp => (SystemSpec::ShortestPath, "SP"),
    };
    let simulated = column("Computer Simulation", move |l| {
        ExperimentConfig::paper_defaults(l, sim_system)
    });
    let sims = run_columns(&topo, &TABLE_LAMBDAS, &[simulated], settings);
    let mut headers = vec!["Method".to_string()];
    headers.extend(TABLE_LAMBDAS.iter().map(|l| format!("lambda={l:.1}")));
    let mut rendered = Table::new(headers);
    let models = [
        ("Mathematical Analysis (Erlang-B)", BlockingModel::ErlangB),
        ("Mathematical Analysis (UAA)", BlockingModel::Uaa),
    ];
    // All model × λ fixed points are independent: fan them through the
    // same worker pool as the simulation grid, in row-major order.
    let mut cases = Vec::with_capacity(models.len() * TABLE_LAMBDAS.len());
    for &(_, model) in &models {
        for &lambda in &TABLE_LAMBDAS {
            cases.push((build_paper_scenario(&topo, lambda, system), model));
        }
    }
    let predictions = predict_ap_batch(settings.jobs, &cases);
    for ((name, _), row) in models.iter().zip(predictions.chunks(TABLE_LAMBDAS.len())) {
        let mut cells = vec![name.to_string()];
        cells.extend(
            row.iter()
                .map(|p| format!("{:.6}", p.admission_probability)),
        );
        rendered.row(cells);
    }
    let mut cells = vec!["Computer Simulation".to_string()];
    cells.extend(
        sims.iter()
            .map(|r| format!("{:.6}", r[0].admission_probability)),
    );
    rendered.row(cells);
    Output::text(format!(
        "Table {table}: analysis vs simulation, system {name}\n\n{}",
        rendered.render()
    ))
}

/// Sensitivity of WD/D+H to the history-damping parameter α. The paper
/// never states the α it used (DESIGN.md §2); α = 1 disables history
/// (pure distance weighting), α = 0 gives one failure veto power.
fn alpha_ablation(settings: &RunSettings) -> Output {
    let columns: Vec<Column> = [0.0, 0.25, 0.5, 0.75, 1.0]
        .into_iter()
        .map(|alpha| {
            let policy = PolicySpec::WdDh {
                alpha,
                mode: HistoryMode::FromBase,
            };
            column(format!("alpha={alpha:.2}"), move |l| {
                ExperimentConfig::paper_defaults(l, SystemSpec::dac(policy, 2))
            })
        })
        .collect();
    Output::text(
        ap_grid(
            "Ablation: WD/D+H admission probability vs alpha (R = 2)",
            &topologies::mci(),
            &[20.0, 30.0, 40.0, 50.0],
            &columns,
            settings,
        )
        .0,
    )
}

/// The two readings of the WD/D+H weight update (DESIGN.md §2): recompute
/// from the base distance weights per selection, or mutate a persistent
/// weight vector.
fn history_mode_ablation(settings: &RunSettings) -> Output {
    let lambdas = [20.0, 30.0, 40.0, 50.0];
    let columns: Vec<Column> = [
        ("FromBase", HistoryMode::FromBase),
        ("Iterative", HistoryMode::Iterative),
    ]
    .into_iter()
    .map(|(label, mode)| {
        let policy = PolicySpec::WdDh { alpha: 0.5, mode };
        column(label, move |l| {
            ExperimentConfig::paper_defaults(l, SystemSpec::dac(policy, 2))
        })
    })
    .collect();
    let rows = run_columns(&topologies::mci(), &lambdas, &columns, settings);
    let headers = ["AP", "tries"]
        .iter()
        .flat_map(|metric| columns.iter().map(move |c| format!("{} {metric}", c.label)));
    let table = lambda_table(&lambdas, headers, &rows, |row| {
        let mut cells = ap_cells(row);
        cells.extend(row.iter().map(|m| format!("{:.4}", m.mean_tries)));
        cells
    });
    Output::text(format!(
        "Ablation: WD/D+H weight-update interpretation (alpha = 0.5, R = 2)\n\n{table}"
    ))
}

/// Does the Figure-6 system ordering survive on other topologies? The
/// comparison re-run on a grid, a ring and a Waxman random graph (the
/// paper only evaluates the MCI backbone), sources at the odd nodes.
fn topology_ablation(settings: &RunSettings) -> Output {
    let lambdas = [10.0, 25.0, 40.0];
    let cap = Bandwidth::from_mbps(100);
    let wax = topologies::waxman(19, 0.5, 0.5, 7, cap).expect("seed 7 yields a connected graph");
    let cases = [
        // Members spread over the mesh.
        (
            "Grid 5x4",
            topologies::grid(5, 4, cap),
            [0u32, 4, 9, 12, 18],
        ),
        // The adversarial no-alternative-routes case.
        ("Ring 19", topologies::ring(19, cap), [0, 4, 8, 12, 16]),
        ("Waxman 19 (seed 7)", wax, [0, 4, 8, 12, 16]),
    ];
    let mut text = String::new();
    for (name, topo, members) in cases {
        let members = members.map(NodeId::new).to_vec();
        let sources: Vec<NodeId> = (0..topo.node_count() as u32)
            .filter(|n| n % 2 == 1)
            .map(NodeId::new)
            .collect();
        let columns = system_columns(&comparison_systems(), |l, system| {
            ExperimentConfig::paper_defaults(l, system)
                .with_group(members.clone())
                .with_sources(sources.clone())
        });
        let rows = run_columns(&topo, &lambdas, &columns, settings);
        let table = lambda_table(&lambdas, labels(&columns), &rows, ap_cells);
        text += &format!("{name}: admission probability\n{table}\n");
    }
    Output::text(text)
}

/// Admission probability vs anycast group size K (the paper fixes K = 5).
fn group_size_ablation(settings: &RunSettings) -> Output {
    let groups: [(&str, &[u32]); 4] = [
        ("K=1", &[8]),
        ("K=2", &[0, 8]),
        ("K=3", &[0, 8, 16]),
        ("K=5", &[0, 4, 8, 12, 16]),
    ];
    let columns: Vec<Column> = groups
        .into_iter()
        .map(|(label, members)| {
            column(label, move |l| {
                ExperimentConfig::paper_defaults(l, SystemSpec::dac(PolicySpec::wd_dh_default(), 2))
                    .with_group(members.iter().map(|&n| NodeId::new(n)).collect())
            })
        })
        .collect();
    Output::text(
        ap_grid(
            "Ablation: <WD/D+H,2> admission probability vs group size K",
            &topologies::mci(),
            &[20.0, 35.0, 50.0],
            &columns,
            settings,
        )
        .0,
    )
}

/// The paper's fixed retrial counter vs the adaptive extension that stops
/// early when the untried destinations' selection weights are negligible,
/// saving signaling messages at equal admission probability.
fn adaptive_retrial_ablation(settings: &RunSettings) -> Output {
    let lambdas = [20.0, 30.0, 40.0, 50.0];
    let adaptive = |min_weight| RetrialPolicy::Adaptive { max: 5, min_weight };
    let columns: Vec<Column> = [
        ("fixed R=5", RetrialPolicy::FixedLimit(5)),
        ("adaptive 5/0.05", adaptive(0.05)),
        ("adaptive 5/0.15", adaptive(0.15)),
    ]
    .into_iter()
    .map(|(label, retrial)| {
        let system = SystemSpec::Dac {
            policy: PolicySpec::wd_dh_default(),
            retrial,
        };
        column(label, move |l| ExperimentConfig::paper_defaults(l, system))
    })
    .collect();
    let rows = run_columns(&topologies::mci(), &lambdas, &columns, settings);
    let headers = columns
        .iter()
        .flat_map(|c| [format!("{} AP", c.label), format!("{} msg/req", c.label)]);
    let table = lambda_table(&lambdas, headers, &rows, |row| {
        row.iter()
            .flat_map(|m| [ap(m), format!("{:.2}", m.messages_per_request)])
            .collect()
    });
    Output::text(format!(
        "Ablation: fixed vs adaptive retrial control (WD/D+H)\n\n{table}"
    ))
}

/// Heterogeneous bandwidth demands (every flow in the paper demands
/// 64 kb/s): thin, standard and fat flows in mixes of equal mean demand,
/// so total offered bits are the same in every column.
fn demand_mix_ablation(settings: &RunSettings) -> Output {
    let class = |kbps, weight| DemandClass {
        bandwidth: Bandwidth::from_kbps(kbps),
        weight,
    };
    let columns: Vec<Column> = [
        ("uniform 64k", vec![]),
        ("bimodal 16k/112k", vec![class(16, 0.5), class(112, 0.5)]),
        (
            "heavy-tailed 16k/64k/512k",
            vec![class(16, 0.571), class(64, 0.357), class(512, 0.072)],
        ),
    ]
    .into_iter()
    .map(|(label, mix)| {
        column(label, move |l| {
            ExperimentConfig::paper_defaults(l, SystemSpec::dac(PolicySpec::wd_dh_default(), 2))
                .with_demand_mix(mix.clone())
        })
    })
    .collect();
    Output::text(
        ap_grid(
            "Ablation: <WD/D+H,2> under heterogeneous demands (equal mean 64 kb/s)",
            &topologies::mci(),
            &[20.0, 35.0, 50.0],
            &columns,
            settings,
        )
        .0,
    )
}

/// What path diversity buys: the single-path DAC against the multipath
/// variant (k shortest routes per member, Yen's algorithm) and the GDI
/// oracle that may use any path.
fn multipath_ablation(settings: &RunSettings) -> Output {
    let systems = [
        SystemSpec::dac(PolicySpec::wd_dh_default(), 2),
        SystemSpec::dac_multipath(PolicySpec::wd_dh_default(), 2, 2),
        SystemSpec::dac_multipath(PolicySpec::wd_dh_default(), 2, 3),
        SystemSpec::GlobalDynamic,
    ];
    Output::text(
        ap_grid(
            "Ablation: single-path vs multipath DAC (WD/D+H, R = 2) vs GDI",
            &topologies::mci(),
            &[20.0, 27.5, 35.0, 42.5, 50.0],
            &system_columns(&systems, ExperimentConfig::paper_defaults),
            settings,
        )
        .0,
    )
}

/// Several anycast services sharing one backbone, against the same total
/// load on the paper's single K = 5 group.
fn multigroup_ablation(settings: &RunSettings) -> Output {
    let lambdas = [20.0, 35.0, 50.0];
    let group = |members: &[u32], share| GroupSpec {
        members: members.iter().map(|&n| NodeId::new(n)).collect(),
        share,
    };
    let groups = vec![
        // A well-replicated CDN-like service takes half the traffic.
        group(&[0, 4, 8, 12, 16], 2.0),
        // A two-site database service.
        group(&[2, 14], 1.0),
        // A single-site legacy service (pure unicast).
        group(&[10], 1.0),
    ];
    let system = SystemSpec::dac(PolicySpec::wd_dh_default(), 2);
    let columns = [
        column("single K=5", |l| {
            ExperimentConfig::paper_defaults(l, system)
        }),
        column("3 services overall", |l| {
            ExperimentConfig::paper_defaults(l, system).with_groups(groups.clone())
        }),
    ];
    let rows = run_columns(&topologies::mci(), &lambdas, &columns, settings);
    let headers = labels(&columns).chain(["K=5 CDN", "K=2 DB", "K=1 legacy"].map(String::from));
    let table = lambda_table(&lambdas, headers, &rows, |row| {
        let multi = &row[1];
        // Per-group APs averaged over replications.
        let mut per_group = [0.0f64; 3];
        for run in &multi.runs {
            for (g, ap) in run.per_group_ap.iter().enumerate() {
                per_group[g] += ap / multi.runs.len() as f64;
            }
        }
        let mut cells = ap_cells(row);
        cells.extend(per_group.iter().map(|ap| format!("{ap:.4}")));
        cells
    });
    Output::text(format!(
        "Ablation: <WD/D+H,2> with one K=5 group vs three services sharing the partition\n\n\
         {table}\nSparser services suffer first: replication degree buys admission probability.\n"
    ))
}

/// How robust is the Poisson assumption? The same long-run arrival rate
/// offered as Poisson and as increasingly bursty MMPP-2 streams.
fn burstiness_ablation(settings: &RunSettings) -> Output {
    let system = SystemSpec::dac(PolicySpec::wd_dh_default(), 2);
    let mut columns = vec![column("Poisson", |l| {
        ExperimentConfig::paper_defaults(l, system)
    })];
    columns.extend([1.3, 1.6, 1.9].map(|burstiness| {
        column(format!("bursty {burstiness:.1}"), move |l| {
            ExperimentConfig::paper_defaults(l, system).with_arrivals(ArrivalProcess::Bursty {
                burstiness,
                mean_sojourn_secs: 60.0,
            })
        })
    }));
    Output::text(
        ap_grid(
            "Ablation: <WD/D+H,2> under bursty (MMPP-2) arrivals at equal mean rate",
            &topologies::mci(),
            &[20.0, 35.0, 50.0],
            &columns,
            settings,
        )
        .0,
    )
}

/// The link-MTBF grid of the fault ablation (seconds; `INFINITY` = no
/// faults). MTTR is fixed at [`ABLATION_MTTR_SECS`].
pub const ABLATION_MTBF_GRID: [f64; 5] = [f64::INFINITY, 2_000.0, 1_000.0, 500.0, 250.0];

/// Mean time to repair used throughout the fault ablation (seconds).
pub const ABLATION_MTTR_SECS: f64 = 60.0;

fn mean_availability(rep: &ReplicatedMetrics) -> f64 {
    rep.runs.iter().map(|m| m.availability).sum::<f64>() / rep.runs.len() as f64
}

/// Fault ablation: AP of SP, GDI, `<ED,2>` and `<WD/D+H,2>` as the link
/// failure rate rises (fixed 60 s mean repair), one row per link MTBF.
///
/// The fault timeline is a function of the seed and the plan only, so for
/// a given MTBF every system sees the identical outage schedule and the
/// availability column applies to the whole row.
fn faults_ablation(settings: &RunSettings) -> Output {
    const LAMBDA: f64 = 30.0;
    let systems = [
        SystemSpec::ShortestPath,
        SystemSpec::GlobalDynamic,
        SystemSpec::dac(PolicySpec::Ed, 2),
        SystemSpec::dac(PolicySpec::wd_dh_default(), 2),
    ];
    let columns = system_columns(&systems, |mtbf, system| {
        let cfg = ExperimentConfig::paper_defaults(LAMBDA, system);
        if mtbf.is_finite() {
            cfg.with_faults(FaultPlan::none().with_link_model(mtbf, ABLATION_MTTR_SECS))
        } else {
            cfg
        }
    });
    let rows = run_columns(&topologies::mci(), &ABLATION_MTBF_GRID, &columns, settings);
    let row_labels = ABLATION_MTBF_GRID.iter().map(|mtbf| {
        if mtbf.is_finite() {
            format!("{mtbf:.0}s")
        } else {
            "none".to_string()
        }
    });
    let headers = std::iter::once("avail".to_string()).chain(labels(&columns));
    let table = grid_table("link MTBF", row_labels, headers, &rows, |row| {
        let mut cells = vec![format!("{:.4}", mean_availability(&row[0]))];
        cells.extend(ap_cells(row));
        cells
    });
    let json = JsonValue::obj([
        ("figure", JsonValue::Str("ablation_faults".into())),
        ("lambda", JsonValue::Num(LAMBDA)),
        ("mttr_secs", JsonValue::Num(ABLATION_MTTR_SECS)),
        ("link_mtbf_secs", JsonValue::nums(ABLATION_MTBF_GRID)),
        (
            "availability",
            JsonValue::nums(rows.iter().map(|r| mean_availability(&r[0]))),
        ),
        (
            "series",
            series(
                &columns,
                &rows,
                &[("admission_probability", |m| m.admission_probability)],
            ),
        ),
    ]);
    Output {
        text: format!(
            "Fault ablation: admission probability vs link failure rate (lambda = {LAMBDA:.0})\n\n{table}"
        ),
        json: Some(json),
    }
}

/// Usage of the `figures` binary.
pub const USAGE: &str = "\
usage: figures [NAME...] [--quick|--full] [--jobs N] [--out DIR]
  NAME      a table, figure or ablation (default: all of them)
  --quick   shortened runs (300 s warm-up, 600 s measured, one seed)
  --full    paper-faithful run lengths (default)
  --jobs N  sweep worker threads (default: available cores;
            results are bit-identical for every N)
  --out DIR where <NAME>.txt and <NAME>.json go (default: results)
";

/// A parsed `figures` command line.
#[derive(Debug, Clone)]
pub struct Invocation {
    /// The entries to run, in registry order (all when none was named).
    pub figures: Vec<Figure>,
    /// Run lengths, seeds and worker count.
    pub settings: RunSettings,
    /// The output directory.
    pub out: PathBuf,
}

/// Parses the `figures` command line (without the program name).
/// `Ok(None)` means `--help`.
///
/// # Errors
///
/// An unknown name or flag, or a missing or malformed value.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Option<Invocation>, String> {
    let mut names = Vec::new();
    let mut quick = false;
    let mut jobs = default_jobs();
    let mut out = PathBuf::from("results");
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--quick" => quick = true,
            "--full" => quick = false,
            "--jobs" | "-j" => {
                let v = value()?;
                jobs = match v.parse::<usize>() {
                    Ok(n) if n > 0 => n,
                    _ => return Err(format!("--jobs wants a positive integer, got `{v}`")),
                };
            }
            "--out" => out = PathBuf::from(value()?),
            "--help" | "-h" => return Ok(None),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            name => match FIGURES.iter().find(|f| f.name == name) {
                Some(f) => names.push(f.name),
                None => return Err(format!("unknown figure `{name}`")),
            },
        }
    }
    let figures = FIGURES
        .into_iter()
        .filter(|f| names.is_empty() || names.contains(&f.name))
        .collect();
    let mut settings = if quick {
        RunSettings::quick()
    } else {
        RunSettings::full()
    };
    settings.jobs = jobs;
    Ok(Some(Invocation {
        figures,
        settings,
        out,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Invocation>, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn names_are_the_checked_in_artifacts() {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut stems: Vec<String> = std::fs::read_dir(results)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "txt"))
            .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
        stems.sort();
        let mut names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        names.sort();
        assert_eq!(stems, names);
    }

    #[test]
    fn parses_names_profile_jobs_and_out() {
        let inv = parse(&[
            "table2_sp_analysis_vs_sim",
            "fig3_ed_sensitivity",
            "--quick",
            "-j",
            "3",
            "--out",
            "/tmp/x",
        ])
        .unwrap()
        .unwrap();
        // Registry order, not command-line order.
        let names: Vec<&str> = inv.figures.iter().map(|f| f.name).collect();
        assert_eq!(names, ["fig3_ed_sensitivity", "table2_sp_analysis_vs_sim"]);
        assert_eq!(inv.settings.replications, 1);
        assert_eq!(inv.settings.jobs, 3);
        assert_eq!(inv.out, PathBuf::from("/tmp/x"));

        let all = parse(&[]).unwrap().unwrap();
        assert_eq!(all.figures.len(), FIGURES.len());
        assert_eq!(all.settings.warmup_secs, RunSettings::full().warmup_secs);
        assert_eq!(all.out, PathBuf::from("results"));
        assert!(parse(&["--help"]).unwrap().is_none());
    }

    #[test]
    fn rejects_unknown_names_flags_and_bad_values() {
        for args in [
            &["fig6_ap_comparison", "fig8"][..],
            &["--bogus"],
            &["--jobs", "0"],
            &["--jobs", "two"],
            &["--out"],
        ] {
            assert!(parse(args).is_err(), "{args:?}");
        }
    }

    #[test]
    fn written_bytes_are_identical_for_every_job_count() {
        let table2 = FIGURES
            .iter()
            .find(|f| f.name == "table2_sp_analysis_vs_sim")
            .unwrap();
        let written: Vec<String> = [1, 2]
            .iter()
            .map(|&jobs| {
                let dir = std::env::temp_dir()
                    .join(format!("anycast-figures-{}-jobs{jobs}", std::process::id()));
                std::fs::create_dir_all(&dir).unwrap();
                let settings = RunSettings {
                    jobs,
                    ..RunSettings::quick()
                };
                table2.write(&settings, &dir).unwrap();
                let bytes = std::fs::read_to_string(dir.join("table2_sp_analysis_vs_sim.txt"));
                std::fs::remove_dir_all(&dir).unwrap();
                bytes.unwrap()
            })
            .collect();
        assert_eq!(written[0], written[1]);
        assert!(written[0].starts_with("Table 2: analysis vs simulation, system SP\n"));
    }
}
