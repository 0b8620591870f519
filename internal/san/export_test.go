package san

import (
	"fmt"

	"vcpusim/internal/rng"
)

// TimedActivityFunc creates a timed activity whose delay is computed by fn,
// which may depend on the current marking.
func (s *Sub) TimedActivityFunc(name string, fn func(*rng.Source) float64) *Activity {
	if fn == nil {
		s.model.addErr(fmt.Errorf("san: nil delay function on activity %s", s.qualify(name)))
		fn = func(*rng.Source) float64 { return 1 }
	}
	return s.activity(name, Timed, fn)
}
