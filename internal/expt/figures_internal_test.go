package expt

import (
	"testing"

	"codelayout/internal/core"
)

// TestFigureCombosAreTableRows: the figure tables name layouts; core's combo
// table is the only place that says what a name builds — bar "base", the
// original binary, which no pipeline builds.
func TestFigureCombosAreTableRows(t *testing.T) {
	rows := map[string]bool{"base": true}
	for _, c := range core.Combos() {
		rows[c.Name] = true
	}
	for _, name := range append(append([]string(nil), comboNames...), comboNamesExt...) {
		if !rows[name] {
			t.Errorf("figure combo %q is not a row of core.Combos()", name)
		}
	}
}
