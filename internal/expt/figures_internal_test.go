package expt

import (
	"testing"

	"codelayout/internal/core"
)

// TestFigureCombosAreTableRows: the figure tables name layouts; core's combo
// table is the only place that says what a name builds.
func TestFigureCombosAreTableRows(t *testing.T) {
	rows := make(map[string]bool)
	for _, c := range core.Combos() {
		rows[c.Name] = true
	}
	for _, name := range append(append([]string(nil), comboNames...), comboNamesExt...) {
		if !rows[name] {
			t.Errorf("figure combo %q is not a row of core.Combos()", name)
		}
	}
}
