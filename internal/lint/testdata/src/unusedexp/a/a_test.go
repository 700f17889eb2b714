package a

func useOwn() float64 {
	return float64(OnlyOwnTest()) + Square{}.Perimeter() + float64(DeadConst)
}
