package b

import "unusedexp/a"

func useA() float64 {
	return float64(a.UsedByOtherTest()) + a.Square{Side: 1}.Scale(2).Side
}
