package core

import "testing"

// obsv is one (linked, applied, debt) observation and the verdict the
// catch-up rule must give on it.
type obsv struct {
	linked, applied, debt int
	fire                  bool
}

// lagObs builds a serial-strategy (B-ALL/B-MIN) observation: no LSIR holds,
// so the debt is the whole lag.
func lagObs(linked, applied int, fire bool) obsv {
	return obsv{linked, applied, linked - applied, fire}
}

func TestCatchupCriterion(t *testing.T) {
	cases := []struct {
		name string
		lag  int
		seq  []obsv
	}{
		{"idle tenant fires on the first observation", 64, []obsv{
			{0, 0, 0, true},
		}},
		{"quiesced tenant with everything applied fires at once", 64, []obsv{
			{500, 500, 0, true},
		}},
		{"a single dip followed by a rise never fires", 4, []obsv{
			{100, 40, 60, false},
			{110, 106, 4, false}, // dip: mark = 110, applied short of it
			{130, 109, 21, false},
			{150, 112, 38, false},
			{200, 190, 10, false},
		}},
		{"a dip held through one turnover fires exactly at the mark", 4, []obsv{
			{100, 40, 60, false},
			{110, 106, 4, false}, // mark = 110
			{112, 108, 4, false},
			{114, 109, 3, false}, // LSIR floor: lag 5, debt 3
			{116, 110, 2, true},  // applied reached the mark
		}},
		{"an excursion re-arms the mark", 4, []obsv{
			{110, 106, 4, false}, // mark = 110
			{120, 109, 11, false},
			{122, 118, 4, false}, // applied is past the old mark; new mark = 122
			{124, 121, 3, false},
			{126, 122, 4, true},
		}},
		{"held-back syncsets are lag, not debt, but still inside the turnover", 2, []obsv{
			{10, 4, 0, false}, // six syncsets behind an open master transaction
			{14, 4, 0, false},
			{14, 9, 2, false}, // it resolved: they drain
			{15, 10, 1, true},
		}},
		{"serial strategy: debt is the lag", 1, []obsv{
			lagObs(50, 10, false),
			lagObs(60, 59, false), // mark = 60
			lagObs(62, 59, false), // rise: disarmed
			lagObs(64, 63, false), // mark = 64
			lagObs(65, 64, true),
		}},
		{"serial strategy: idle fires at once", 1, []obsv{
			lagObs(7, 7, true),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := catchup{lag: tc.lag}
			for i, o := range tc.seq {
				if got := c.observe(o.linked, o.applied, o.debt); got != o.fire {
					t.Fatalf("observation %d %+v: fired = %v, want %v", i, o, got, o.fire)
				}
			}
		})
	}
}
