package cancel

import "testing"

// TestSelectorSwitchPoints pins the exact decision sequences of the paper's
// Section 5 cancellation variants: the single-threshold (ST) degenerate
// case, the dead-zone (DC) hysteresis, the period-gated control invocation,
// and the PS / PA freezing rules. Each case feeds a comparison outcome
// sequence (h = hit, m = miss) and asserts the strategy in force after every
// single comparison, so any drift in the switch points fails loudly.
func TestSelectorSwitchPoints(t *testing.T) {
	const A, L = Aggressive, Lazy
	cases := []struct {
		name string
		cfg  Config
		// feed is the comparison sequence; want[i] is the strategy in
		// force after feed[i].
		feed string
		want []Strategy
		// switches is the expected lifetime switch count afterwards.
		switches int64
		// monitoring is the expected Monitoring() state afterwards.
		monitoring bool
	}{
		{
			// ST: A2L == L2A removes the dead zone. Depth 4, decide every
			// comparison. Ratio over the valid window: 1/1, 2/2, 2/3, 2/4,
			// 1/4. Exactly 0.5 is inside neither region (> vs <), so the
			// fourth comparison holds lazy; the fifth (0.25) switches back.
			name:       "single-threshold",
			cfg:        Config{Mode: Dynamic, FilterDepth: 4, A2LThreshold: 0.5, L2AThreshold: 0.5, Period: 1},
			feed:       "hhmmm",
			want:       []Strategy{L, L, L, L, A},
			switches:   2,
			monitoring: true,
		},
		{
			// DC dead zone [0.3, 0.6]: ratios 0/1, 1/2, 2/3, 2/4, 2/4, 1/4.
			// 0.5 held aggressive at comparison 2 but lazy at comparisons
			// 4-5 — the hysteresis that damps thrashing. Crossings happen
			// only at 0.667 (> 0.6) and 0.25 (< 0.3).
			name:       "dead-zone-hysteresis",
			cfg:        Config{Mode: Dynamic, FilterDepth: 4, A2LThreshold: 0.6, L2AThreshold: 0.3, Period: 1},
			feed:       "mhhmmm",
			want:       []Strategy{A, A, L, L, L, A},
			switches:   2,
			monitoring: true,
		},
		{
			// Period 4 gates the controller: ratio is 1.0 from the first
			// hit, but no decision runs until the fourth comparison.
			name:       "period-gated",
			cfg:        Config{Mode: Dynamic, FilterDepth: 4, A2LThreshold: 0.5, L2AThreshold: 0.5, Period: 4},
			feed:       "hhhh",
			want:       []Strategy{A, A, A, L},
			switches:   1,
			monitoring: true,
		},
		{
			// PS: at the third comparison Total reaches PermanentAfter; the
			// threshold decides (2/3 > 0.6 -> lazy) and the selector
			// freezes. The trailing misses are never recorded — Monitoring
			// is off — so the strategy stays lazy forever.
			name:       "ps-freeze",
			cfg:        Config{Mode: Dynamic, FilterDepth: 8, A2LThreshold: 0.6, L2AThreshold: 0.3, Period: 100, PermanentAfter: 3},
			feed:       "hhhmmmmm",
			want:       []Strategy{A, A, L, L, L, L, L, L},
			switches:   1,
			monitoring: false,
		},
		{
			// PA: three consecutive misses pin the object to aggressive.
			// The first hit goes lazy (1/1), miss 2 holds (1/2 = 0.5 in the
			// zone), miss 3 crosses down (1/3 < 0.45 with the defaulted
			// thresholds... pinned explicitly here: 1/3 < 0.4), and miss 4
			// trips FalseRun >= 3, freezing before the trailing hits.
			name:       "pa-freeze",
			cfg:        Config{Mode: Dynamic, FilterDepth: 8, A2LThreshold: 0.6, L2AThreshold: 0.4, Period: 1, PermanentAggressiveRun: 3},
			feed:       "hmmmhh",
			want:       []Strategy{L, L, A, A, A, A},
			switches:   2,
			monitoring: false,
		},
		{
			// Static aggressive never monitors and never switches, whatever
			// the comparison stream says.
			name:       "static-aggressive",
			cfg:        Config{Mode: StaticAggressive},
			feed:       "hhhhhh",
			want:       []Strategy{A, A, A, A, A, A},
			switches:   0,
			monitoring: false,
		},
		{
			// Static lazy likewise: comparisons are inherent to running
			// lazily but its selector records none and never leaves lazy.
			name:       "static-lazy",
			cfg:        Config{Mode: StaticLazy},
			feed:       "mmmmmm",
			want:       []Strategy{L, L, L, L, L, L},
			switches:   0,
			monitoring: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSelector(tc.cfg)
			if len(tc.feed) != len(tc.want) {
				t.Fatalf("bad case: %d inputs, %d expectations", len(tc.feed), len(tc.want))
			}
			for i, ch := range tc.feed {
				got := s.RecordComparison(ch == 'h')
				if got != tc.want[i] {
					t.Fatalf("after comparison %d (%c): strategy %s, want %s",
						i+1, ch, got, tc.want[i])
				}
				if got != s.Current() {
					t.Fatalf("RecordComparison returned %s but Current() is %s", got, s.Current())
				}
			}
			if s.Switches() != tc.switches {
				t.Errorf("switches = %d, want %d", s.Switches(), tc.switches)
			}
			if s.Monitoring() != tc.monitoring {
				t.Errorf("monitoring = %v, want %v", s.Monitoring(), tc.monitoring)
			}
		})
	}
}

// TestSelectorFrozenStopsRecording verifies the PS/PA saving the paper
// claims ("the cost of doing passive comparison is completely avoided"): a
// frozen selector no longer pushes comparisons into its window.
func TestSelectorFrozenStopsRecording(t *testing.T) {
	s := NewSelector(Config{Mode: Dynamic, FilterDepth: 8, A2LThreshold: 0.6,
		L2AThreshold: 0.3, Period: 100, PermanentAfter: 2})
	s.RecordComparison(true)
	s.RecordComparison(true)
	if got := s.Comparisons(); got != 2 {
		t.Fatalf("comparisons before freeze = %d, want 2", got)
	}
	for i := 0; i < 5; i++ {
		s.RecordComparison(false)
	}
	if got := s.Comparisons(); got != 2 {
		t.Errorf("frozen selector recorded comparisons: %d, want 2", got)
	}
	if s.Current() != Lazy {
		t.Errorf("frozen strategy = %s, want lazy", s.Current())
	}
}
