module rubin/benchmark

go 1.24

require rubin v0.0.0

replace rubin => ../
