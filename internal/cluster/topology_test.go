package cluster

import (
	"fmt"
	"strings"
	"testing"
)

// TestValidateBoundsCounts: host, slot and arrival counts expand into
// one host, VM slot or queued VM each, so a count past its bound (alone
// or summed over groups) is rejected before anything is expanded, and a
// count at the bound is not.
func TestValidateBoundsCounts(t *testing.T) {
	const slot = `{"vcpus": 1, "load": {"dist": "deterministic", "value": 1}`
	topology := func(hostCounts, slotCounts, arrivalCounts []int) string {
		var slots, hosts, arrivals []string
		for _, c := range slotCounts {
			slots = append(slots, fmt.Sprintf(`%s, "count": %d}`, slot, c))
		}
		for _, c := range hostCounts {
			hosts = append(hosts, fmt.Sprintf(`{"count": %d, "pcpus": 1, "slots": [%s]}`, c, strings.Join(slots, ", ")))
		}
		for _, c := range arrivalCounts {
			arrivals = append(arrivals, fmt.Sprintf(`{"at": 1, "count": %d, "vcpus": 1}`, c))
		}
		return fmt.Sprintf(`{"hosts": [%s], "arrivals": [%s]}`, strings.Join(hosts, ", "), strings.Join(arrivals, ", "))
	}
	for _, tc := range []struct {
		name                   string
		hosts, slots, arrivals []int
		want                   string // error substring; empty means accepted
	}{
		{"hosts at the bound", []int{maxHosts}, []int{1}, nil, ""},
		{"hosts past the bound", []int{1 << 40}, []int{1}, nil, fmt.Sprintf("bound of %d", maxHosts)},
		{"hosts summed past the bound", []int{maxHosts - 1, 2}, []int{1}, nil, fmt.Sprintf("bound of %d", maxHosts)},
		{"arrivals at the bound", []int{1}, []int{1}, []int{maxArrivals}, ""},
		{"arrivals past the bound", []int{1}, []int{1}, []int{1 << 40}, fmt.Sprintf("bound of %d", maxArrivals)},
		{"arrivals summed past the bound", []int{1}, []int{1}, []int{maxArrivals, 1}, fmt.Sprintf("bound of %d", maxArrivals)},
		{"slots past the bound", []int{1}, []int{maxSlots + 1}, nil, fmt.Sprintf("bound of %d", maxSlots)},
		{"slots summed past the bound", []int{1}, []int{maxSlots, 1}, nil, fmt.Sprintf("bound of %d", maxSlots)},
		{"negative slot count", []int{1}, []int{1, -1}, nil, "non-positive count -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTopology(strings.NewReader(topology(tc.hosts, tc.slots, tc.arrivals)))
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want != "" && err == nil:
				t.Fatal("accepted")
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Errorf("error %q does not name %q", err, tc.want)
			}
		})
	}
}
