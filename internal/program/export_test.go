package program

// LayoutVersion is the layout file format version, for the external tests
// that write files by hand.
const LayoutVersion = layoutVersion
