//! Golden `to_bits` regression tests for the Nelder–Mead solver.
//!
//! The expected values were captured from the original (allocating)
//! implementation before the scratch-space rewrite; the optimized solver
//! must reproduce every bit. Any future "optimization" that perturbs the
//! floating-point operation order — reassociating the accumulation,
//! changing the vertex tie-break, fusing operations — fails here loudly
//! instead of silently shifting every simulation result downstream.

use ices_nps::{NelderMeadScratch, NelderMeadStats};

fn dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// One solve on a fresh workspace: the best point and the stats.
fn solve(
    f: impl FnMut(&[f64]) -> f64,
    x0: &[f64],
    initial_step: f64,
    max_iter: usize,
    tol: f64,
) -> (Vec<f64>, NelderMeadStats) {
    let mut scratch = NelderMeadScratch::new();
    let stats = scratch.minimize(f, x0, initial_step, max_iter, tol);
    (scratch.best_point().to_vec(), stats)
}

#[track_caller]
fn assert_bits(
    (x, r): &(Vec<f64>, NelderMeadStats),
    x_bits: &[u64],
    value_bits: u64,
    iterations: usize,
    converged: bool,
) {
    let got: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, x_bits, "x drifted: {x:?}");
    assert_eq!(r.value.to_bits(), value_bits, "value drifted: {}", r.value);
    assert_eq!(r.iterations, iterations, "iteration count drifted");
    assert_eq!(r.converged, converged, "convergence flag drifted");
}

#[test]
fn rosenbrock_2d_bits_are_stable() {
    let rosen = |x: &[f64]| {
        let (a, b) = (x[0], x[1]);
        (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2)
    };
    let r = solve(rosen, &[-1.2, 1.0], 0.5, 5000, 1e-12);
    assert_bits(
        &r,
        &[4607182418800017448, 4607182418800017573],
        4226092822484221952,
        150,
        true,
    );
}

#[test]
fn gnp_2d_objective_bits_are_stable() {
    // 5 anchors, exact distances to a hidden point — the GNP objective
    // shape an NPS node minimizes every round.
    let anchors: [[f64; 2]; 5] = [
        [0.0, 0.0],
        [100.0, 0.0],
        [0.0, 100.0],
        [100.0, 100.0],
        [50.0, 120.0],
    ];
    let truth = [37.0, 61.0];
    let rtts: Vec<f64> = anchors.iter().map(|a| dist(a, &truth)).collect();
    let objective = |x: &[f64]| -> f64 {
        anchors
            .iter()
            .zip(&rtts)
            .map(|(a, &rtt)| {
                let est = dist(a, x);
                ((est - rtt) / rtt).powi(2)
            })
            .sum()
    };
    let r = solve(objective, &[0.0, 0.0], 10.0, 5000, 1e-14);
    assert_bits(
        &r,
        &[4630404104378646528, 4633781804099174400],
        0, // the solve bottoms out at exactly +0.0
        139,
        true,
    );
}

#[test]
fn gnp_8d_objective_bits_are_stable() {
    // The paper's 8-d configuration: 20 deterministic anchors, iteration
    // cap at the production solver_max_iter so the capped path is pinned
    // too.
    let truth: Vec<f64> = (0..8).map(|i| 10.0 * i as f64).collect();
    let anchors: Vec<Vec<f64>> = (0..20usize)
        .map(|k| {
            (0..8)
                .map(|d| {
                    if (k + d) % 3 == 0 {
                        100.0
                    } else {
                        -30.0 * (d as f64 + 1.0) / (k as f64 + 1.0)
                    }
                })
                .collect()
        })
        .collect();
    let rtts: Vec<f64> = anchors.iter().map(|a| dist(a, &truth)).collect();
    let objective = |x: &[f64]| -> f64 {
        anchors
            .iter()
            .zip(&rtts)
            .map(|(a, &rtt)| {
                let est = dist(a, x);
                ((est - rtt) / rtt).powi(2)
            })
            .sum()
    };
    let r = solve(objective, &[0.0; 8], 25.0, 600, 1e-8);
    assert_bits(
        &r,
        &[
            13837690620005887472,
            4624078763543945294,
            4625399041461412575,
            4632791086344457034,
            4633923935935641159,
            4633384838249820440,
            4631526973022107598,
            4632338435002074422,
        ],
        4547130067293897008,
        600,
        false,
    );
}

// Above 16 dimensions a lane keeps its centroid sums in its own buffer
// rather than a local array, so these two pin that path. Their expected
// values (and evaluation counts) were captured from the one-run loop
// that preceded the lane machine.

#[test]
fn gnp_20d_objective_bits_are_stable() {
    let truth: Vec<f64> = (0..20).map(|i| 5.0 * i as f64 - 40.0).collect();
    let anchors: Vec<Vec<f64>> = (0..26usize)
        .map(|k| {
            (0..20)
                .map(|d| {
                    if (k + d) % 4 == 0 {
                        90.0
                    } else {
                        -25.0 * (d as f64 + 1.0) / (k as f64 + 2.0)
                    }
                })
                .collect()
        })
        .collect();
    let rtts: Vec<f64> = anchors.iter().map(|a| dist(a, &truth)).collect();
    let objective = |x: &[f64]| -> f64 {
        anchors
            .iter()
            .zip(&rtts)
            .map(|(a, &rtt)| {
                let est = dist(a, x);
                ((est - rtt) / rtt).powi(2)
            })
            .sum()
    };
    let r = solve(objective, &[0.0; 20], 20.0, 600, 1e-8);
    assert_bits(
        &r,
        &[
            13853072299663729984,
            13853898769975434284,
            13850504306288751539,
            13854855373779563146,
            13851670792288399846,
            4617420803700407977,
            13849397859731041220,
            4627699324780115896,
            13850039708713168560,
            13839683490230113688,
            4621307550332864367,
            4626612035345925210,
            4627831174870056550,
            4624586201178615366,
            4631328115014252360,
            4626443172939582350,
            4631700025801519002,
            4631053474089072500,
            4629750157387006522,
            4631674994104465601,
        ],
        4561693547330831650,
        600,
        false,
    );
    assert_eq!(r.1.evaluations, 795, "evaluation count drifted");
}

#[test]
fn weighted_bowl_17d_bits_are_stable() {
    let bowl = |x: &[f64]| -> f64 {
        x.iter()
            .enumerate()
            .map(|(i, v)| (i as f64 + 1.0) * (v - i as f64 / 3.0) * (v - i as f64 / 3.0))
            .sum()
    };
    let r = solve(bowl, &[0.0; 17], 1.0, 20000, 1e-10);
    assert_bits(
        &r,
        &[
            13683312714741363131,
            4599676419421152091,
            4604180019048522342,
            4607182418799113943,
            4608683618675480824,
            4610184818551985645,
            4611686018427244026,
            4612436618365252582,
            4613187218303139372,
            4613937818241135756,
            4614688418179099953,
            4615439018116834192,
            4616189618054606476,
            4616564918023732826,
            4616940217992706665,
            4617315517961548470,
            4617690817930580731,
        ],
        4330568959484289866,
        6082,
        true,
    );
    assert_eq!(r.1.evaluations, 7889, "evaluation count drifted");
}
