// Package cellgan is a from-scratch Go reproduction of "Parallel/
// distributed implementation of cellular training for generative
// adversarial neural networks" (Pérez, Nesmachnow, Toutouh, Hemberg,
// O'Reilly — IPDPS/PDCO 2020, arXiv:2004.04633).
//
// The repository implements the whole stack the paper builds on:
//
//   - internal/tensor, internal/nn — the neural-network substrate (dense
//     linear algebra, backprop MLPs, BCE losses, Adam) replacing PyTorch;
//   - internal/dataset — a deterministic procedural substitute for MNIST;
//   - internal/mpi — MPI-style communicators over in-process and TCP
//     transports (point-to-point, multicast, barrier, allgather, split);
//   - internal/grid — the toroidal cellular topology with dynamic
//     neighbourhood patterns;
//   - internal/core — the cellular competitive coevolutionary GAN
//     training algorithm (Mustangs/Lipizzaner) with sequential and
//     parallel execution modes;
//   - internal/cluster — the master/slave runtime with heartbeats,
//     simulated Cluster-UY resource allocation and result reduction;
//   - internal/metrics — inception-score/Fréchet/mode-coverage quality
//     measures backed by a classifier trained on the synthetic digits;
//   - internal/perfmodel — the calibrated cost model reproducing the
//     paper's Tables III and IV;
//   - internal/experiments, internal/report — regeneration of every table
//     and figure of the evaluation section.
//
// See README.md for a walkthrough, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-reproduction
// numbers. The benchmarks in bench_test.go regenerate each table/figure
// under `go test -bench=.`.
package cellgan
