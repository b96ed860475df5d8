package meshrouter

// ChannelBusy returns the busy-cycle count of the output channel at
// node in direction d: the per-channel witness of TestRunGolden and of
// the X-first path tests.
func (m *Mesh) ChannelBusy(node int, d Direction) int {
	if node < 0 || node >= len(m.routers) || d < 0 || d >= numPorts {
		return 0
	}
	return m.busy[node*int(numPorts)+int(d)]
}
