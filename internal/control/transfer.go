package control

// This file provides the T component of the control tuple for integer-valued
// parameters: transfer functions that nudge a parameter up or down in
// response to a sampled scalar cost, assuming (as Section 4 of the paper
// does) that the cost is a single-minimum function of the parameter.

// IntParam is an integer parameter under configuration, clamped to
// [Min, Max] and adjusted in units of Step.
type IntParam struct {
	Value, Min, Max, Step int
}

// Inc raises the parameter by one step, saturating at Max.
func (p *IntParam) Inc() {
	p.Value += p.Step
	if p.Value > p.Max {
		p.Value = p.Max
	}
}

// Dec lowers the parameter by one step, saturating at Min.
func (p *IntParam) Dec() {
	p.Value -= p.Step
	if p.Value < p.Min {
		p.Value = p.Min
	}
}

// IncUnlessWorse is the transfer function the paper uses for the checkpoint
// interval: "at every control invocation, if Ec is not observed to have
// increased significantly, the check-pointing period is incremented;
// otherwise, it is decremented." Significance is a relative margin, so tiny
// cost jitter does not reverse the parameter.
type IncUnlessWorse struct {
	// Margin is the relative increase in cost considered significant
	// (e.g. 0.05 = 5%).
	Margin float64
	prev   float64
	primed bool
}

// Observe feeds the cost measured since the previous invocation and adjusts
// the parameter in place.
func (t *IncUnlessWorse) Observe(cost float64, p *IntParam) {
	if !t.primed {
		t.primed = true
		t.prev = cost
		p.Inc()
		return
	}
	if cost > t.prev*(1+t.Margin) {
		p.Dec()
	} else {
		p.Inc()
	}
	t.prev = cost
}
