package faults

import "sort"

// Disable disarms the named failpoint. Hit counts survive.
func Disable(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, had := points[name]; had {
		delete(points, name)
		armed.Add(-1)
	}
}

// Active returns the names of currently armed failpoints, sorted.
func Active() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(points))
	for name := range points {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
