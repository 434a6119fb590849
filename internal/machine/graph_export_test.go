package machine

import "codelayout/internal/db"

// Graph returns the waits-for graph the machine's engines share (tests).
func (m *Machine) Graph() *db.WaitGraph { return m.graph }
