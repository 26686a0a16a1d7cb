// The benchmark is a module of its own so that it builds from its own
// directory; the replace directive makes the reasoner under test the
// source tree this directory sits in, never a published version.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
