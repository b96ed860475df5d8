package netsim

// Test helpers shared with the external netsim_test package, whose
// tests exercise the observers that live outside the engine.
var (
	Line   = line
	Approx = approx
)
