// The benchmark is a module of its own so that the repository's tier-1
// build and tests never depend on it; the replace line lets it import the
// packages it measures.
module namecoherence/bench

go 1.22

require namecoherence v0.0.0

replace namecoherence => ../
