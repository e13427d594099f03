// Package repro is a from-scratch Go reproduction of Sullivan & Olson,
// "An Index Implementation Supporting Fast Recovery for the POSTGRES
// Storage System" (ICDE 1992): crash-recoverable B-link-tree indexes for a
// no-overwrite storage system that has no write-ahead log.
//
// The library lives under internal/; see README.md for the architecture,
// DESIGN.md for the system inventory and per-experiment index, and
// EXPERIMENTS.md for the paper-versus-measured results and the one command
// that regenerates each.
package repro
