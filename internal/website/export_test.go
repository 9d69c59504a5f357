package website

// BodyPattern exposes the shared body array to the external test package.
var BodyPattern = bodyPattern[:]
