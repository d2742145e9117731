//! The repository benchmark: a seeded single-cell stream, a span recorder
//! and the layer-by-layer composition of a cell.  `run.py` drives the
//! `perfbench` binary built from this crate; see `BENCHMARK.json`.

pub mod cells;
pub mod layers;
pub mod spans;
