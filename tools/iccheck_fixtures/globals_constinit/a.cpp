constinit int ticks = 0;
constinit const int kTicksMax = 3;
