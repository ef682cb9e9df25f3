package scenario

import (
	"reflect"
	"testing"
	"time"
)

// FuzzScenarioParse runs the text grammar on inputs nobody wrote. Parse and
// Validate must never panic, and a script that parses and validates must
// survive Parse∘String unchanged: String prints every field the grammar
// can set, so the text form loses nothing. The committed corpus holds one
// input per statement form of SCENARIOS.md, plus "failpath ... flaps=1",
// which String once dropped, and NaN churn and loss rates, which Validate
// once accepted.
func FuzzScenarioParse(f *testing.F) {
	const horizon = 800 * time.Second
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if err != nil {
			return
		}
		if err := s.Validate(horizon, nil); err != nil {
			return
		}
		back, err := Parse(s.String())
		if err != nil {
			t.Fatalf("Parse(%q).String() = %q does not reparse: %v", text, s, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("Parse∘String changed the script of %q:\n before %#v\n after  %#v", text, s.Events, back.Events)
		}
	})
}
