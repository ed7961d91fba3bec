// Package conformance holds the simulator's property and metamorphic test
// suite: every all-to-all strategy is run over a matrix of torus and mesh
// shapes at shard counts {1, 2, 4}, with and without the runtime invariant
// checker (network.RunSpec.Check, package check), and the results are held
// to the model's symmetries - rank-permutation invariance of aggregate
// throughput, dimension-relabeling symmetry, the Equation 2 peak lower
// bound, and serial/sharded identity. Each run is simulated once per package
// (runCell's memo) and shared by every test that needs it.
//
// The package contains only tests; this file exists so the package is a
// buildable unit. Run the full matrix with CONFORMANCE_FULL=1; point
// CONFORMANCE_ARTIFACTS at a directory to collect network-state dumps from
// failing runs.
package conformance
