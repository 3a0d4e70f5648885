# P4 with CRLF line ends
# n 4
0 1
1 2
2 3
