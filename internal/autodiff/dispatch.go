package autodiff

// Referencing a generic function as a value inside generic code (e.g.
// passing elemFwdChunk[T] to par.ForCtx from a TapeOf[T] method) makes the
// runtime build a closure binding the instantiation dictionary — one heap
// allocation per reference, which would put two allocations back into every
// op and break the zero-alloc steady state (TestTapeReuseZeroAllocs).
//
// opTable fixes that: every backward and chunk function the ops hand out by
// value is materialised ONCE per dtype at package init, and the ops read the
// stored func values (a struct field load — no allocation). Float is a
// closed two-member set, so two tables cover every instantiation.
type opTable[T Float] struct {
	// Backward functions (newNode's back argument).
	matMulBack          func(*ValueOf[T])
	matMulTBack         func(*ValueOf[T])
	elemBack            func(*ValueOf[T])
	addRowBroadcastBack func(*ValueOf[T])
	mulColBroadcastBack func(*ValueOf[T])
	concatBack          func(*ValueOf[T])
	colBack             func(*ValueOf[T])
	gatherBack          func(*ValueOf[T])
	scatterAddRowsBack  func(*ValueOf[T])
	segmentSoftmaxBack  func(*ValueOf[T])
	sumAllBack          func(*ValueOf[T])
	rowSoftmaxBack      func(*ValueOf[T])
	linearBack          func(*ValueOf[T])
	edgeAttnBack        func(*ValueOf[T])

	// Parallel chunk functions with the node as context.
	elemFwdChunk            func(*ValueOf[T], int, int)
	elemBackChunk           func(*ValueOf[T], int, int)
	addRowBroadcastFwdChunk func(*ValueOf[T], int, int)
	mulColBroadcastFwdChunk func(*ValueOf[T], int, int)
	mulColBroadcastBkChunk  func(*ValueOf[T], int, int)
	concatFwdChunk          func(*ValueOf[T], int, int)
	concatBackChunk         func(*ValueOf[T], int, int)
	colFwdChunk             func(*ValueOf[T], int, int)
	colBackChunk            func(*ValueOf[T], int, int)
	gatherFwdChunk          func(*ValueOf[T], int, int)
	scatterAddRowsBkChunk   func(*ValueOf[T], int, int)
	rowSoftmaxFwdChunk      func(*ValueOf[T], int, int)
	rowSoftmaxBackChunk     func(*ValueOf[T], int, int)
	linearFwdChunk          func(*ValueOf[T], int, int)

	// Chunk functions with args-struct contexts.
	gemmChunk             func(gemmArgs[T], int, int)
	gemmBTChunk           func(gemmArgs[T], int, int)
	gemmATChunk           func(gemmArgs[T], int, int)
	segSoftmaxFwdChunk    func(segSoftmaxArgs[T], int, int)
	segSoftmaxBackChunk   func(segSoftmaxArgs[T], int, int)
	segScatterChunk       func(segScatterArgs[T], int, int)
	lreluRouteChunk       func(lreluRouteArgs[T], int, int)
	edgeAttnChunk         func(edgeAttnArgs[T], int, int)
	edgeAttnBackDstChunk  func(edgeAttnArgs[T], int, int)
	edgeAttnBackSrcChunk  func(edgeAttnArgs[T], int, int)
	edgeAttnBackAttnChunk func(edgeAttnArgs[T], int, int)

	// Adam chunks.
	adamZeroChunk func(*AdamOf[T], int, int)
	adamStepChunk func(adamStepArgs[T], int, int)
}

func newOpTable[T Float]() *opTable[T] {
	return &opTable[T]{
		matMulBack:          matMulBack[T],
		matMulTBack:         matMulTBack[T],
		elemBack:            elemBack[T],
		addRowBroadcastBack: addRowBroadcastBack[T],
		mulColBroadcastBack: mulColBroadcastBack[T],
		concatBack:          concatBack[T],
		colBack:             colBack[T],
		gatherBack:          gatherBack[T],
		scatterAddRowsBack:  scatterAddRowsBack[T],
		segmentSoftmaxBack:  segmentSoftmaxBack[T],
		sumAllBack:          sumAllBack[T],
		rowSoftmaxBack:      rowSoftmaxBack[T],
		linearBack:          linearBack[T],
		edgeAttnBack:        edgeAttnBack[T],

		elemFwdChunk:            elemFwdChunk[T],
		elemBackChunk:           elemBackChunk[T],
		addRowBroadcastFwdChunk: addRowBroadcastFwdChunk[T],
		mulColBroadcastFwdChunk: mulColBroadcastFwdChunk[T],
		mulColBroadcastBkChunk:  mulColBroadcastBackChunk[T],
		concatFwdChunk:          concatFwdChunk[T],
		concatBackChunk:         concatBackChunk[T],
		colFwdChunk:             colFwdChunk[T],
		colBackChunk:            colBackChunk[T],
		gatherFwdChunk:          gatherFwdChunk[T],
		scatterAddRowsBkChunk:   scatterAddRowsBackChunk[T],
		rowSoftmaxFwdChunk:      rowSoftmaxFwdChunk[T],
		rowSoftmaxBackChunk:     rowSoftmaxBackChunk[T],
		linearFwdChunk:          linearFwdChunk[T],

		gemmChunk:             gemmChunk[T],
		gemmBTChunk:           gemmBTChunk[T],
		gemmATChunk:           gemmATChunk[T],
		segSoftmaxFwdChunk:    segSoftmaxFwdChunk[T],
		segSoftmaxBackChunk:   segSoftmaxBackChunk[T],
		segScatterChunk:       segScatterChunk[T],
		lreluRouteChunk:       lreluRouteChunk[T],
		edgeAttnChunk:         edgeAttnChunk[T],
		edgeAttnBackDstChunk:  edgeAttnBackDstChunk[T],
		edgeAttnBackSrcChunk:  edgeAttnBackSrcChunk[T],
		edgeAttnBackAttnChunk: edgeAttnBackAttnChunk[T],

		adamZeroChunk: adamZeroChunk[T],
		adamStepChunk: adamStepChunk[T],
	}
}

var (
	opTable32 *opTable[float32]
	opTable64 *opTable[float64]
)

// Assigned in init (not var initialisers) to break the spurious static
// initialisation cycle the compiler sees between the tables, the op
// functions, and opsFor.
func init() {
	opTable32 = newOpTable[float32]()
	opTable64 = newOpTable[float64]()
}

// opsFor returns the dtype's function table: a type switch on the zero value
// plus a pointer assertion, both allocation-free.
func opsFor[T Float]() *opTable[T] {
	var z T
	if _, ok := any(z).(float32); ok {
		return any(opTable32).(*opTable[T])
	}
	return any(opTable64).(*opTable[T])
}
