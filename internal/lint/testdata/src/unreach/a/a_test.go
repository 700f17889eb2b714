package a

func useOwn() int {
	return OnlyOwnTest() + DeadCaller() + DeadConst
}
