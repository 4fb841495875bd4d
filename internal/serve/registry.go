// Package serve exposes the simulation stack as an HTTP service: a
// bounded job queue with backpressure over the protocol catalogue
// (internal/catalog), a worker pool backed by the replica fleet, and NDJSON
// streaming of per-replica results.
//
// Determinism survives the network boundary by construction: a job is an
// expt.JobSpec, replica i derives its whole RNG stream from
// expt.ReplicaSeed(spec.Seed, i), records are streamed in replica order
// through a fleet.OrderedSink, and the CLI (popsim -ndjson) runs the exact
// same catalogue code — so the same spec yields byte-identical output from
// either entry point, for any worker count.
package serve

import "popkit/internal/catalog"

// The catalogue's registry types under serve's names, which svcbench
// builds against.
type (
	Registry   = catalog.Registry
	Protocol   = catalog.Protocol
	RunOptions = catalog.RunOptions
)

// NewRegistry returns the built-in protocols (catalog.NewRegistry).
func NewRegistry() *Registry { return catalog.NewRegistry() }
