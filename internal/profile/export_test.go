package profile

// ResidualEdges returns how many distinct edges the collector had to count
// outside its per-block slots.
func (px *Pixie) ResidualEdges() int { return len(px.residual) }
