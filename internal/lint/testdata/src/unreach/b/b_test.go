package b

import "unreach/a"

func useA() int { return a.UsedByOtherTest() }
