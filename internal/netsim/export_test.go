package netsim

// Test helpers shared with the external netsim_test package, whose
// tests exercise the observers that live outside the engine.
var (
	Line   = line
	Approx = approx
)

// SetReferenceEverywhere puts every network built from now on onto the
// reference engine (on) or back onto the sharded engine.
func SetReferenceEverywhere(on bool) { referenceEverywhere = on }
