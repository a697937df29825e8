//! `lightmirm` — command-line workflow for the LightMIRM reproduction.
//!
//! ```text
//! lightmirm generate --out world.bin [--rows 50000] [--seed 7]
//! lightmirm train    --data world.bin --out model.json
//!                    [--method lightmirm|meta-irm|erm] [--trees 64]
//!                    [--epochs 60] [--mrq-len 5] [--gamma 0.9] ...
//! lightmirm score    --model model.json --data world.bin --out scores.csv
//!                    [--batch 256] [--workers 2]
//! lightmirm serve-replay --model model.json --data world.bin --out replay.json
//!                    [--batch 256] [--workers 2] [--chunk 1] [--grid 40]
//!                    [--shards 1] [--loadgen-trace flash-crowd]
//! lightmirm evaluate --model model.json --data world.bin [--min-rows 50]
//! lightmirm audit    --model model.json --baseline a.bin --current b.bin
//! lightmirm explain  --model model.json --data world.bin --row N [--top 5]
//! lightmirm stress-lab [--quick|--full] [--out results/stresslab]
//! ```
//!
//! Data files use the `loansim` binary format, or CSV when the path ends
//! in `.csv`. Models are versioned JSON bundles (extractor + LR head +
//! provenance).
//!
//! Every serving command (`score`, `serve-replay`, `ops-report`) runs
//! through the sharded front end: `score` with one shard, `serve-replay`
//! with `--shards N` (default 1 on the companion stream, 4 under
//! `--loadgen-trace`). Scores are bit-identical for any shard count.

#![forbid(unsafe_code)]

mod args;
mod commands;

fn main() {
    let parsed = match args::ParsedArgs::parse(std::env::args().skip(1)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: lightmirm <generate|train|score|serve-replay|evaluate|audit|explain|stress-lab> --flag value ..."
            );
            std::process::exit(2);
        }
    };
    let mut stdout = std::io::stdout();
    if let Err(e) = commands::run(&parsed, &mut stdout) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
